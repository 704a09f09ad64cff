// Package simdet is a tangolint fixture: nondeterminism sources written
// directly in a sim-driven package, which detertaint reports. Every
// `// want <analyzer> "substr"` comment is asserted by lint_test.go, in
// both directions: each want must be reported, and each report must be
// wanted.
package simdet

import (
	"math/rand"
	"sort"
	"time"
)

// A package-level initialiser is no function, yet its sources count.
var started = time.Now() // want detertaint "wall-clock call time.Now"

// Wall-clock reads are forbidden in sim-driven packages: the engine has
// a virtual clock, and real time makes runs unreproducible.
func wallClock() float64 {
	t0 := time.Now()                  // want detertaint "wall-clock call time.Now"
	time.Sleep(10 * time.Millisecond) // want detertaint "wall-clock call time.Sleep"
	return time.Since(t0).Seconds()   // want detertaint "wall-clock call time.Since"
}

// Global math/rand functions draw from shared process-wide state.
func globalRand() int {
	x := rand.Intn(10)        // want detertaint "global math/rand call rand.Intn"
	if rand.Float64() > 0.5 { // want detertaint "global math/rand call rand.Float64"
		x++
	}
	return x
}

// Explicit, seeded generators are the allowed form.
func seededRand(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

// Map iteration order must not flow into an appended result.
func mapOrderLeak(m map[string]int) []string {
	var keys []string
	for k := range m { // want detertaint "appends to keys in iteration order"
		keys = append(keys, k)
	}
	return keys
}

// Nor into a slice field, which outlives the function.
type collector struct{ targets []string }

func (c *collector) mapOrderLeakField(m map[string]int) {
	for k := range m { // want detertaint "appends to c.targets in iteration order"
		c.targets = append(c.targets, k)
	}
}

// Sorting the field after the loop restores a canonical order: allowed.
func (c *collector) mapOrderFieldSorted(m map[string]int) {
	for k := range m {
		c.targets = append(c.targets, k)
	}
	sort.Strings(c.targets)
}

// Nor into a channel the consumer will drain in arrival order.
func mapOrderLeakChan(m map[string]int, out chan<- string) {
	for k := range m {
		out <- k // want detertaint "leaks iteration order"
	}
}

// Sorting after the loop restores a canonical order: allowed.
func mapOrderSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Order-insensitive folds over a map are allowed.
func mapCount(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// The escape hatch: an explained ignore silences the finding.
func suppressed() int64 {
	//lint:ignore detertaint fixture demonstrates the escape hatch
	return time.Now().UnixNano()
}
