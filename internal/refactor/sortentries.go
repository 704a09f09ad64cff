package refactor

import (
	"math"

	"tango/internal/par"
)

// radixKey is the complemented IEEE bit pattern of |v|: cheap enough that
// each pass derives it from the value it moves, no key array beside them.
func radixKey(v float64) uint64 {
	return ^(math.Float64bits(v) &^ (1 << 63))
}

// sortScratch is what sortEntries keeps between calls: the index
// column's ping-pong buffer and one digit histogram per par chunk.
// Decompose passes one across its levels, so it pays for the longest
// level only.
type sortScratch struct {
	idx  []uint32
	hist [][256]int
}

// sortEntries orders a stream by descending |value|, ties by ascending
// index, with a stable LSD radix sort on the complement of |value|'s bit
// pattern, which is monotone in |v| (a NaN, only from Inf−Inf, sorts
// before +Inf), and stability gives the tiebreak, since extraction emits
// ascending indices. The value column ping-pongs through vtmp, at least
// as long as s, and the index column through the scratch.
//
// Each pass runs on par's fixed chunks: every chunk counts its digits,
// the offsets are handed out digit-major and, within a digit, in chunk
// order, and every chunk then scatters its own entries in order. An
// entry lands where the serial stable pass puts it — after all smaller
// digits, after the same digit in earlier chunks, after the same digit
// earlier in its own chunk — so the permutation is the serial one at
// any worker count, and the writes are disjoint.
func sortEntries(s stream, vtmp []float64, sc *sortScratch) {
	n := len(s.val)
	// A digit every key shares permutes nothing: there the AND and the
	// OR of all keys agree, and the pass is skipped.
	type andOr struct{ and, or uint64 }
	all := par.MapReduce(n, func(lo, hi int) andOr {
		m := andOr{^uint64(0), 0}
		for _, v := range s.val[lo:hi] {
			k := radixKey(v)
			m.and &= k
			m.or |= k
		}
		return m
	}, func(a, b andOr) andOr { return andOr{a.and & b.and, a.or | b.or} })
	varying := all.and ^ all.or
	if varying == 0 {
		return // also every stream of fewer than two entries
	}

	if len(sc.idx) < n {
		sc.idx = make([]uint32, n)
	}
	nc := par.NumChunks(n)
	if len(sc.hist) < nc {
		sc.hist = make([][256]int, nc)
	}
	src, dst := s, stream{sc.idx[:n], vtmp[:n]}
	for shift := uint(0); shift < 64; shift += 8 {
		if byte(varying>>shift) != 0 {
			radixPass(src, dst, sc.hist[:nc], shift)
			src, dst = dst, src
		}
	}
	if &src.val[0] != &s.val[0] {
		copy(s.idx, src.idx)
		copy(s.val, src.val)
	}
}

// radixPass moves src into dst stably by the key byte at shift, with
// hist holding one histogram per par chunk of src.
func radixPass(src, dst stream, hist [][256]int, shift uint) {
	n := len(src.val)
	par.ForChunk(n, func(c, lo, hi int) {
		h := &hist[c]
		*h = [256]int{}
		for _, v := range src.val[lo:hi] {
			h[byte(radixKey(v)>>shift)]++
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
	par.ForChunk(n, func(c, lo, hi int) {
		offs := &hist[c]
		idx := src.idx[lo:hi]
		for k, v := range src.val[lo:hi] {
			d := byte(radixKey(v) >> shift)
			o := offs[d]
			dst.idx[o], dst.val[o] = idx[k], v
			offs[d] = o + 1
		}
	})
}
