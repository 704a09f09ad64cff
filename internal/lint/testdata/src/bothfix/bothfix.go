// Package bothfix is a tangolint fixture for detertaint's two kinds of
// finding. One sim-driven function holds a source of its own and a
// frontier call: each must be reported once, and neither as the other.
package bothfix

import (
	"time"

	"tango/internal/fixture/tickutil"
)

// Step reads the wall clock itself and again through tickutil.
func Step() int64 {
	local := time.Now().UnixNano()  // want detertaint "wall-clock call time.Now"
	return local + tickutil.Stamp() // want detertaint "call into nondeterministic tickutil.Stamp"
}
