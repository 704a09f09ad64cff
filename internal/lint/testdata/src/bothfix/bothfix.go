// Package bothfix is a tangolint fixture: a sim-driven function that
// reads the wall clock itself and again through tickutil. Each source is
// reported once, where it is written: here, and in tickutil.
package bothfix

import (
	"time"

	"tango/internal/fixture/tickutil"
)

// Step reads the wall clock itself and again through tickutil.
func Step() int64 {
	local := time.Now().UnixNano() // want detertaint "wall-clock call time.Now in sim-driven package"
	return local + tickutil.Stamp()
}
