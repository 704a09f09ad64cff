// Package par provides deterministic data-parallel helpers for the
// compute-heavy kernels (restriction, prolongation, metric scans). Work
// is split into contiguous index ranges whose boundaries depend only on
// the problem size — never on GOMAXPROCS or on how many workers happen to
// run — so results are bit-identical to the sequential execution on any
// machine: For requires workers to write disjoint ranges, and MapReduce
// folds its per-chunk partials in chunk order.
//
// A problem of one chunk runs inline on the caller. A larger one is
// drained by the caller itself and min(GOMAXPROCS, chunks)−1 helper
// goroutines pulling chunk indices from one shared counter.
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

// chunkSize returns the chunk length for a problem of size n: Threshold
// at minimum, growing once n exceeds Threshold*maxChunks. A function of n
// alone — determinism of every split depends on this.
func chunkSize(n int) int {
	return max(Threshold, (n+maxChunks-1)/maxChunks)
}

// NumChunks returns how many fixed chunks [0, n) splits into — the
// partition For and ForChunk iterate. Like chunkSize it is a function of
// n alone, so callers can preallocate per-chunk result slots that line
// up across passes.
func NumChunks(n int) int {
	if n <= 0 {
		return 0
	}
	size := chunkSize(n)
	return (n + size - 1) / size
}

// loop is one multi-chunk call's shared state: the next chunk to claim
// and the helpers still draining.
type loop struct {
	next            atomic.Int64
	helpers         sync.WaitGroup
	n, chunks, size int
	fn              func(chunk, lo, hi int)
}

// drain claims chunks until none is left.
func (l *loop) drain() {
	for {
		c := int(l.next.Add(1)) - 1
		if c >= l.chunks {
			return
		}
		lo := c * l.size
		l.fn(c, lo, min(lo+l.size, l.n))
	}
}

// run executes fn over the chunks fixed chunks of [0, n): in order on the
// caller at one worker (or at most one chunk), else drained by the caller
// alongside min(GOMAXPROCS, chunks)−1 helpers.
func run(n, chunks int, fn func(chunk, lo, hi int)) {
	size := chunkSize(n)
	w := min(runtime.GOMAXPROCS(0), chunks)
	if w <= 1 {
		for c := 0; c < chunks; c++ {
			lo := c * size
			fn(c, lo, min(lo+size, n))
		}
		return
	}
	l := &loop{n: n, chunks: chunks, size: size, fn: fn}
	l.helpers.Add(w - 1)
	for range w - 1 {
		go func() { l.drain(); l.helpers.Done() }()
	}
	l.drain()
	l.helpers.Wait()
}

// ForChunk is For with the chunk index passed alongside the range, for
// two-pass count/fill patterns that stage per-chunk results into
// disjoint, chunk-ordered slots (an ordered merge without locks). Same
// contract as For: fn must only write state derived from its own chunk,
// and chunk boundaries depend only on n.
func ForChunk(n int, fn func(chunk, lo, hi int)) {
	run(n, NumChunks(n), fn)
}

// For runs fn over [0, n) split into contiguous fixed-size chunks. fn
// must only write state derived from its own range. Small problems run
// inline on the calling goroutine.
func For(n int, fn func(lo, hi int)) {
	if c := NumChunks(n); c == 1 {
		fn(0, n)
	} else if c > 1 {
		run(n, c, func(_, lo, hi int) { fn(lo, hi) })
	}
}

// MapReduce runs fn over the fixed chunks of [0, n), each returning a
// partial value, and folds the partials IN CHUNK ORDER with combine.
// Because chunk boundaries depend only on n, the floating-point reduction
// is identical on every machine and at every worker count.
func MapReduce[T any](n int, fn func(lo, hi int) T, combine func(a, b T) T) T {
	switch c := NumChunks(n); c {
	case 0:
		var zero T
		return zero
	case 1:
		return fn(0, n)
	default:
		partials := make([]T, c)
		run(n, c, func(c, lo, hi int) { partials[c] = fn(lo, hi) })
		acc := partials[0]
		for _, p := range partials[1:] {
			acc = combine(acc, p)
		}
		return acc
	}
}
