//go:build !race

package par

import (
	"runtime"
	"testing"
)

// TestAllocsPerCallAtTwoWorkers counts what one multi-chunk call allocates
// at GOMAXPROCS 2, read from runtime.MemStats because testing.AllocsPerRun
// pins GOMAXPROCS to 1, where run takes its sequential loop and allocates
// nothing. The caller drains chunks itself, so one helper goroutine
// (its closure) and the shared loop state are all a fan-out costs; For
// adds the closure it wraps fn in (here fn captures too), and MapReduce
// its partials and the closure that stores into them.
func TestAllocsPerCallAtTwoWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n, calls = 4 * Threshold, 200
	sink := make([]int, n)
	fill := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			sink[i] = i
		}
	}
	sum := func(lo, hi int) int { return hi - lo }
	add := func(a, b int) int { return a + b }
	// The least of five rounds: a helper still exiting when the next call
	// starts costs the runtime a fresh goroutine, which is not par's.
	perCall := func(f func()) float64 {
		least := uint64(1 << 62)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range calls {
				f()
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return float64(least) / calls
	}
	for _, tc := range []struct {
		name string
		f    func()
		want float64
	}{
		{"ForChunk", func() { ForChunk(n, fill) }, 2},
		{"For", func() { For(n, func(lo, hi int) { fill(0, lo, hi) }) }, 4},
		{"MapReduce", func() { MapReduce(n, sum, add) }, 4},
	} {
		if got := perCall(tc.f); got > tc.want+0.25 {
			t.Errorf("%s over %d chunks at 2 workers allocates %.2f objects a call, want %v", tc.name, NumChunks(n), got, tc.want)
		} else {
			t.Logf("%s: %.2f objects a call", tc.name, got)
		}
	}
}
