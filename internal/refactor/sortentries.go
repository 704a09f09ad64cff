package refactor

import (
	"math"
	"slices"
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
// tmp is the radix path's ping-pong buffer; it is grown when shorter
// than entries and returned, so a caller sorting several slices pays for
// the longest one only.
func sortEntries(entries, tmp []Entry) []Entry {
	n := len(entries)
	if n < radixMin {
		slices.SortFunc(entries, compareEntries)
		return tmp
	}

	// One scan builds all eight digit histograms; digit counts do not
	// depend on the order of earlier passes.
	var count [8][256]int
	for _, e := range entries {
		k := radixKey(e.Value)
		for b := uint(0); b < 8; b++ {
			count[b][byte(k>>(8*b))]++
		}
	}

	if len(tmp) < n {
		tmp = make([]Entry, n)
	}
	src, dst := entries, tmp[:n]
	for b := uint(0); b < 8; b++ {
		c := &count[b]
		// A digit every key shares permutes nothing; skip the pass.
		if c[byte(radixKey(src[0].Value)>>(8*b))] == n {
			continue
		}
		var offs [256]int
		off := 0
		for v := 0; v < 256; v++ {
			offs[v] = off
			off += c[v]
		}
		for _, e := range src {
			v := byte(radixKey(e.Value) >> (8 * b))
			o := offs[v]
			offs[v] = o + 1
			dst[o] = e
		}
		src, dst = dst, src
	}
	if &src[0] != &entries[0] {
		copy(entries, src)
	}
	return tmp
}
