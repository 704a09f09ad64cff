// Package detfix is a tangolint fixture: seeded violations of the
// detertaint analyzer. The package name is added to SimPackages by the
// test. Its calls into the tickutil helper package are not findings —
// tickutil's own sources are, since detfix imports it — but its call
// through Callback is: the outside package, which detfix does not import,
// implements it with a wall-clock read.
package detfix

import "tango/internal/fixture/tickutil"

// Callback is the interface the fixture's engine fires.
type Callback interface{ Fire() }

// Run fires each callback, as an engine's dispatch loop does.
func Run(cbs []Callback) {
	for _, cb := range cbs {
		cb.Fire() // want detertaint "interface call reaches nondeterministic (*outside.Ticker).Fire"
	}
}

// Step reads the wall clock through tickutil, and picks between two
// ready channels nondeterministically.
func Step(a, b chan int) int {
	t := tickutil.Stamp()
	select { // want detertaint "selects across multiple channels"
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
