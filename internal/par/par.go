// Package par provides deterministic data-parallel helpers for the
// compute-heavy kernels (restriction, prolongation, metric scans). Work
// is split into contiguous index ranges whose boundaries depend only on
// the problem size — never on GOMAXPROCS or on how many workers happen to
// run — so results are bit-identical to the sequential execution on any
// machine: For requires workers to write disjoint ranges, and MapReduce
// folds its per-chunk partials in chunk order.
//
// Worker counts are additionally gated by the number of scenario-level
// jobs currently running (see EnterBusy and internal/runpool): when the
// experiment runner fans whole simulations across cores, each kernel
// divides the remaining width instead of oversubscribing GOMAXPROCS.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Threshold is the minimum problem size worth parallelizing; below it
// goroutine overhead dominates.
const Threshold = 1 << 15

// maxChunks bounds the number of chunks a problem is split into, keeping
// scheduling overhead flat for very large n. Chunk boundaries depend only
// on n (see chunkSize), which is what keeps MapReduce's reduction order —
// and therefore its floating-point result — machine-independent.
const maxChunks = 64

// busy counts scenario-level workers currently running whole-simulation
// jobs (incremented by internal/runpool around each job). Kernel-level
// helpers divide GOMAXPROCS by this count so nested parallelism does not
// oversubscribe the machine.
var busy atomic.Int32

// EnterBusy registers a coarse-grained (scenario-level) worker; pair with
// ExitBusy. While k workers are registered, For/MapReduce use at most
// GOMAXPROCS/k goroutines each. The gate changes only how many goroutines
// execute the fixed chunks, never where the chunks split, so results are
// unaffected.
func EnterBusy() { busy.Add(1) }

// ExitBusy unregisters a coarse-grained worker.
func ExitBusy() { busy.Add(-1) }

// chunkSize returns the chunk length for a problem of size n: Threshold
// at minimum, growing once n exceeds Threshold*maxChunks. A function of n
// alone — determinism of every split depends on this.
func chunkSize(n int) int {
	c := Threshold
	if min := (n + maxChunks - 1) / maxChunks; min > c {
		c = min
	}
	return c
}

// workers returns the goroutine budget for nChunks chunks under the
// current busy gate.
func workers(nChunks int) int {
	w := runtime.GOMAXPROCS(0)
	if b := int(busy.Load()); b > 1 {
		w /= b
	}
	return max(min(w, nChunks), 1)
}

// run executes fn over the nChunks fixed chunks of [0, n) using at most
// w goroutines pulling chunk indices from a shared counter.
func run(n, nChunks, w int, fn func(chunk, lo, hi int)) {
	size := chunkSize(n)
	if w == 1 {
		for c := 0; c < nChunks; c++ {
			lo := c * size
			fn(c, lo, min(lo+size, n))
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nChunks {
					return
				}
				lo := c * size
				fn(c, lo, min(lo+size, n))
			}
		}()
	}
	wg.Wait()
}

// NumChunks returns how many fixed chunks [0, n) splits into — the
// partition For and ForChunk iterate. Like chunkSize it is a function of
// n alone, so callers can preallocate per-chunk result slots that line
// up across passes.
func NumChunks(n int) int {
	if n <= 0 {
		return 0
	}
	if n < Threshold {
		return 1
	}
	size := chunkSize(n)
	return (n + size - 1) / size
}

// ForChunk is For with the chunk index passed alongside the range, for
// two-pass count/fill patterns that stage per-chunk results into
// disjoint, chunk-ordered slots (an ordered merge without locks). Same
// contract as For: fn must only write state derived from its own chunk,
// and chunk boundaries depend only on n.
func ForChunk(n int, fn func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	if n < Threshold {
		fn(0, 0, n)
		return
	}
	size := chunkSize(n)
	nChunks := (n + size - 1) / size
	w := workers(nChunks)
	if w == 1 && nChunks == 1 {
		fn(0, 0, n)
		return
	}
	run(n, nChunks, w, fn)
}

// For runs fn over [0, n) split into contiguous fixed-size chunks. fn
// must only write state derived from its own range. Small problems run
// inline on the calling goroutine.
func For(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if n < Threshold {
		fn(0, n)
		return
	}
	size := chunkSize(n)
	nChunks := (n + size - 1) / size
	w := workers(nChunks)
	if w == 1 && nChunks == 1 {
		fn(0, n)
		return
	}
	run(n, nChunks, w, func(_, lo, hi int) { fn(lo, hi) })
}

// MapReduce runs fn over the fixed chunks of [0, n), each returning a
// partial value, and folds the partials IN CHUNK ORDER with combine.
// Because chunk boundaries depend only on n, the floating-point reduction
// is identical on every machine and at every worker count.
func MapReduce[T any](n int, fn func(lo, hi int) T, combine func(a, b T) T) T {
	var zero T
	if n <= 0 {
		return zero
	}
	if n < Threshold {
		return fn(0, n)
	}
	size := chunkSize(n)
	nChunks := (n + size - 1) / size
	if nChunks == 1 {
		return fn(0, n)
	}
	partials := make([]T, nChunks)
	run(n, nChunks, workers(nChunks), func(c, lo, hi int) {
		partials[c] = fn(lo, hi)
	})
	acc := partials[0]
	for _, p := range partials[1:] {
		acc = combine(acc, p)
	}
	return acc
}
