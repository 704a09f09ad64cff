package refactor

import (
	"math"
	"slices"

	"tango/internal/par"
)

// radixMin is the slice length above which sortEntries switches from
// comparison sorting to the radix path; below it the histogram passes
// cost more than pdqsort.
const radixMin = 1 << 12

// radixKey is the complemented IEEE bit pattern of |v|: cheap enough that
// each pass derives it from the entry it moves, no key array beside them.
func radixKey(v float64) uint64 {
	return ^(math.Float64bits(v) &^ (1 << 63))
}

// sortScratch is what sortEntries keeps between calls: the radix passes'
// ping-pong buffer and one digit histogram per par chunk. Decompose
// passes one across its levels, so it pays for the longest level only.
type sortScratch struct {
	tmp  []Entry
	hist [][256]int
}

// sortEntries orders entries by descending |value|, ties broken by
// ascending index — the order compareEntries defines. Large slices use
// a stable LSD radix sort on the complemented IEEE bit pattern of
// |value|: bits(|v|) is monotone in |v| for non-NaN values, so
// ascending passes over the complement yield descending magnitude, and
// stability supplies the index tiebreak because extraction emits
// entries in ascending index order. The result matches compareEntries
// for every non-NaN input; NaN differences (possible only from
// Inf−Inf) order deterministically before +Inf here, whereas a NaN is
// incomparable under compareEntries and pdqsort may place it
// arbitrarily — the radix order is the better-defined of the two.
//
// Each pass runs on par's fixed chunks: every chunk counts its digits,
// the offsets are handed out digit-major and, within a digit, in chunk
// order, and every chunk then scatters its own entries in order. An
// entry lands where the serial stable pass puts it — after all smaller
// digits, after the same digit in earlier chunks, after the same digit
// earlier in its own chunk — so the permutation is the serial one at
// any worker count, and the writes are disjoint.
func sortEntries(entries []Entry, s *sortScratch) {
	n := len(entries)
	if n < radixMin {
		slices.SortFunc(entries, compareEntries)
		return
	}

	// A digit every key shares permutes nothing: there the AND and the
	// OR of all keys agree, and the pass is skipped.
	type andOr struct{ and, or uint64 }
	all := par.MapReduce(n, func(lo, hi int) andOr {
		m := andOr{^uint64(0), 0}
		for _, e := range entries[lo:hi] {
			k := radixKey(e.Value)
			m.and &= k
			m.or |= k
		}
		return m
	}, func(a, b andOr) andOr { return andOr{a.and & b.and, a.or | b.or} })
	varying := all.and ^ all.or

	if len(s.tmp) < n {
		s.tmp = make([]Entry, n)
	}
	nc := par.NumChunks(n)
	if len(s.hist) < nc {
		s.hist = make([][256]int, nc)
	}
	src, dst := entries, s.tmp[:n]
	for shift := uint(0); shift < 64; shift += 8 {
		if byte(varying>>shift) != 0 {
			radixPass(src, dst, s.hist[:nc], shift)
			src, dst = dst, src
		}
	}
	if &src[0] != &entries[0] {
		copy(entries, src)
	}
}

// radixPass moves src into dst stably by the key byte at shift, with
// hist holding one histogram per par chunk of src.
func radixPass(src, dst []Entry, hist [][256]int, shift uint) {
	par.ForChunk(len(src), func(c, lo, hi int) {
		h := &hist[c]
		*h = [256]int{}
		for _, e := range src[lo:hi] {
			h[byte(radixKey(e.Value)>>shift)]++
		}
	})
	off := 0
	for v := 0; v < 256; v++ {
		for c := range hist {
			k := hist[c][v]
			hist[c][v] = off
			off += k
		}
	}
	par.ForChunk(len(src), func(c, lo, hi int) {
		offs := &hist[c]
		for _, e := range src[lo:hi] {
			v := byte(radixKey(e.Value) >> shift)
			dst[offs[v]] = e
			offs[v]++
		}
	})
}
