// Package bothfix is a tangolint fixture for the recogniser the two
// determinism analyzers share. One sim-driven function holds a source of
// its own and a frontier call: simdeterminism must name the first,
// detertaint the second, and neither may report the other's.
package bothfix

import (
	"time"

	"tango/internal/fixture/tickutil"
)

// Step reads the wall clock itself and again through tickutil.
func Step() int64 {
	local := time.Now().UnixNano()  // want simdeterminism "wall-clock call time.Now"
	return local + tickutil.Stamp() // want detertaint "call into nondeterministic tickutil.Stamp"
}
