// Package detfix is a tangolint fixture: seeded violations of the
// detertaint analyzer. The package name is added to SimPackages by the
// test, so calls that smuggle nondeterminism in through the tickutil
// helper package — which is not sim-driven, so its own sources are not
// reported — must be flagged at the frontier, with the call chain down
// to the wall-clock read as witness.
package detfix

import "tango/internal/fixture/tickutil"

// Step leaks the wall clock through two layers of tickutil, and picks
// between two ready channels nondeterministically.
func Step(a, b chan int) int {
	t := tickutil.Stamp() // want detertaint "call into nondeterministic tickutil.Stamp"
	select {              // want detertaint "selects across multiple channels"
	case v := <-a:
		return v + int(t)
	case v := <-b:
		return v
	}
}

// clean calls a taint-free helper: no finding.
func clean(x int64) int64 { return tickutil.Pure(x) }

// A single-channel select (plus default) is deterministic: no finding.
func drain(a chan int) int {
	select {
	case v := <-a:
		return v
	default:
		return 0
	}
}

// suppressed documents a deliberate frontier crossing.
func suppressed() int64 {
	//lint:ignore detertaint startup-only stamp; the value never reaches the scheduler
	return tickutil.Stamp()
}
