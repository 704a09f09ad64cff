package refactor

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"tango/internal/par"
)

// entry is one augmentation entry as the oracles below sort it: the
// columns' two values side by side.
type entry struct {
	idx uint32
	val float64
}

// entries zips a stream's columns.
func (s stream) entries() []entry {
	es := make([]entry, len(s.val))
	for i := range es {
		es[i] = entry{s.idx[i], s.val[i]}
	}
	return es
}

// columns unzips entries into a stream.
func columns(es []entry) stream {
	s := stream{make([]uint32, len(es)), make([]float64, len(es))}
	for i, e := range es {
		s.idx[i], s.val[i] = e.idx, e.val
	}
	return s
}

// sortStream sorts s with a value buffer of its own.
func sortStream(s stream, sc *sortScratch) {
	sortEntries(s, make([]float64, len(s.val)), sc)
}

// compareEntries is the retrieval order: descending |value|, ties by
// ascending index. |value| is compared by its bit pattern, monotone in
// |value| and above +Inf for a NaN, so the order is total and
// slices.SortFunc's result unique.
func compareEntries(a, b entry) int {
	ab, bb := math.Float64bits(math.Abs(a.val)), math.Float64bits(math.Abs(b.val))
	if c := cmp.Compare(bb, ab); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// sortEntriesKeyed is the radix sort as it stood before the keys were
// derived on the fly — a key array beside the entries, both ping-ponged —
// kept as the differential oracle for sortEntries.
func sortEntriesKeyed(entries []entry) {
	n := len(entries)
	if n == 0 {
		return
	}

	keys := make([]uint64, n)
	for i, e := range entries {
		keys[i] = ^math.Float64bits(math.Abs(e.val))
	}

	// One scan builds all eight digit histograms; digit counts do not
	// depend on the order of earlier passes.
	var count [8][256]int
	for _, k := range keys {
		for b := uint(0); b < 8; b++ {
			count[b][byte(k>>(8*b))]++
		}
	}

	tmpE := make([]entry, n)
	tmpK := make([]uint64, n)
	src, dst := entries, tmpE
	ksrc, kdst := keys, tmpK
	for b := uint(0); b < 8; b++ {
		c := &count[b]
		// A digit every key shares permutes nothing; skip the pass.
		if c[byte(ksrc[0]>>(8*b))] == n {
			continue
		}
		var offs [256]int
		off := 0
		for v := 0; v < 256; v++ {
			offs[v] = off
			off += c[v]
		}
		for i := 0; i < n; i++ {
			k := ksrc[i]
			v := byte(k >> (8 * b))
			o := offs[v]
			offs[v] = o + 1
			dst[o] = src[i]
			kdst[o] = k
		}
		src, dst = dst, src
		ksrc, kdst = kdst, ksrc
	}
	if &src[0] != &entries[0] {
		copy(entries, src)
	}
}

// sortEntriesSerial is the key-free radix sort as it stood before its
// passes went onto par's chunks — one histogram scan, then one serial
// scatter per pass — kept as the oracle for the chunked passes.
func sortEntriesSerial(entries, tmp []entry) []entry {
	n := len(entries)
	if n == 0 {
		return tmp
	}

	// One scan builds all eight digit histograms; digit counts do not
	// depend on the order of earlier passes.
	var count [8][256]int
	for _, e := range entries {
		k := radixKey(e.val)
		for b := uint(0); b < 8; b++ {
			count[b][byte(k>>(8*b))]++
		}
	}

	if len(tmp) < n {
		tmp = make([]entry, n)
	}
	src, dst := entries, tmp[:n]
	for b := uint(0); b < 8; b++ {
		c := &count[b]
		// A digit every key shares permutes nothing; skip the pass.
		if c[byte(radixKey(src[0].val)>>(8*b))] == n {
			continue
		}
		var offs [256]int
		off := 0
		for v := 0; v < 256; v++ {
			offs[v] = off
			off += c[v]
		}
		for _, e := range src {
			v := byte(radixKey(e.val) >> (8 * b))
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

type sortCase struct {
	name string
	n    int
	gen  func(i int) float64
}

// sortCases are random streams and the inputs that pick out one branch
// each; the large ones span several par chunks.
func sortCases(rng *rand.Rand) []sortCase {
	specials := []float64{0, math.Copysign(0, -1), 1, -1,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 5e-324 * 7, -2.2250738585072009e-308,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0xfff8000000000123)}
	return []sortCase{
		{"normal", 50_000, func(int) float64 { return rng.NormFloat64() }},
		{"normal, many chunks", 5*par.Threshold + 17, func(int) float64 { return rng.NormFloat64() }},
		{"wide exponents", 50_000, func(int) float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(600)-300)) }},
		{"few magnitudes", 30_000, func(int) float64 { return float64(rng.Intn(5)-2) * 0.25 }},
		{"few magnitudes, many chunks", 3 * par.Threshold, func(int) float64 { return float64(rng.Intn(5)-2) * 0.25 }},
		{"specials", 20_000, func(int) float64 { return specials[rng.Intn(len(specials))] }},
		{"specials among normals", 20_000, func(i int) float64 {
			if i%7 == 0 {
				return specials[rng.Intn(len(specials))]
			}
			return rng.NormFloat64()
		}},
		{"specials among normals, many chunks", 2*par.Threshold + 1, func(i int) float64 {
			if i%7 == 0 {
				return specials[rng.Intn(len(specials))]
			}
			return rng.NormFloat64()
		}},
		// [1,2) shares sign, exponent and so the top key byte and a half:
		// the skipped-pass branch, and with it an odd count of passes.
		{"one binade", 40_000, func(int) float64 { return 1 + rng.Float64() }},
		// The low mantissa bytes are constant instead: float32 values.
		{"float32 mantissas", 40_000, func(int) float64 { return float64(rng.Float32()) - 0.5 }},
		{"all equal", 4101, func(int) float64 { return -3.5 }},
		{"all equal, many chunks", 2 * par.Threshold, func(int) float64 { return -3.5 }},
		{"descending already", 10_000, func(i int) float64 { return float64(10_000 - i) }},
		{"ascending", 10_000, func(i int) float64 { return float64(i) }},
		{"ascending, many chunks", 4 * par.Threshold, func(i int) float64 { return float64(i) }},
		{"just above par.Threshold", par.Threshold + 1, func(int) float64 { return rng.NormFloat64() }},
		{"just below par.Threshold", par.Threshold - 1, func(int) float64 { return rng.NormFloat64() }},
		// The lengths around the old comparison-sort cut-off (4096), with
		// every special value and magnitudes shared by both signs.
		{"empty", 0, func(int) float64 { return 1 }},
		{"one entry", 1, func(int) float64 { return math.NaN() }},
		{"two entries", 2, func(int) float64 { return specials[rng.Intn(len(specials))] }},
		{"specials 4095", 4095, func(int) float64 { return specials[rng.Intn(len(specials))] }},
		{"specials 4096", 4096, func(int) float64 { return specials[rng.Intn(len(specials))] }},
		{"specials 4097", 4097, func(int) float64 { return specials[rng.Intn(len(specials))] }},
		{"specials 1e5", 100_000, func(int) float64 { return specials[rng.Intn(len(specials))] }},
		{"signed pairs 4095", 4095, func(int) float64 { return float64(rng.Intn(64)-32) * 0.125 }},
		{"signed pairs 4097", 4097, func(int) float64 { return float64(rng.Intn(64)-32) * 0.125 }},
		{"signed pairs 1e5", 100_000, func(int) float64 { return float64(rng.Intn(64) - 32) }},
	}
}

// sortCaseEntries builds a case's stream in extraction order: ascending,
// not necessarily dense, indices.
func sortCaseEntries(tc sortCase) []entry {
	entries := make([]entry, tc.n)
	for i := range entries {
		entries[i] = entry{idx: uint32(3 * i), val: tc.gen(i)}
	}
	return entries
}

func sameEntries(t *testing.T, what string, got stream, want []entry) {
	t.Helper()
	if len(got.val) != len(want) || len(got.idx) != len(want) {
		t.Fatalf("%s: %d indices and %d values, want %d entries", what, len(got.idx), len(got.val), len(want))
	}
	for i, w := range want {
		if got.idx[i] != w.idx || math.Float64bits(got.val[i]) != math.Float64bits(w.val) {
			t.Fatalf("%s: position %d: got {%d %v (%#x)}, reference {%d %v (%#x)}", what, i,
				got.idx[i], got.val[i], math.Float64bits(got.val[i]),
				w.idx, w.val, math.Float64bits(w.val))
		}
	}
}

// TestSortEntriesMatchesKeyedReference compares the column sort with
// the keyed one bit for bit (NaN payloads and the sign of zero included)
// on random streams and on the inputs that pick out one branch each.
func TestSortEntriesMatchesKeyedReference(t *testing.T) {
	// One scratch across the cases, as Decompose passes one across levels:
	// dirty from the previous sort and longer or shorter than the next
	// slice; the value buffer is longer than every case, as Decompose's
	// work field is.
	var s sortScratch
	vtmp := make([]float64, 200_000)
	for _, tc := range sortCases(rand.New(rand.NewSource(23))) {
		want := sortCaseEntries(tc)
		got := columns(want)
		sortEntriesKeyed(want)
		sortEntries(got, vtmp, &s)
		sameEntries(t, tc.name, got, want)
	}
}

// TestSortEntriesMatchesSerialPass compares the chunked passes with the
// serial ones bit for bit at one and two workers, on streams below
// par.Threshold (one chunk, run inline) and above it.
func TestSortEntriesMatchesSerialPass(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		var s sortScratch
		var tmp []entry
		for _, tc := range sortCases(rand.New(rand.NewSource(29))) {
			want := sortCaseEntries(tc)
			got := columns(want)
			tmp = sortEntriesSerial(want, tmp)
			sortStream(got, &s)
			sameEntries(t, fmt.Sprintf("procs=%d %s", procs, tc.name), got, want)
		}
	}
}

// TestSortEntriesMatchesComparator holds the column sort to the
// comparison order, a different algorithm, at one and two workers: every
// case above, and a small stream written out by hand.
func TestSortEntriesMatchesComparator(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		var s sortScratch
		for _, tc := range sortCases(rand.New(rand.NewSource(9))) {
			want := sortCaseEntries(tc)
			got := columns(want)
			slices.SortFunc(want, compareEntries)
			sortStream(got, &s)
			sameEntries(t, fmt.Sprintf("procs=%d %s", procs, tc.name), got, want)
		}
	}
	// In extraction order, as the stability tiebreak needs.
	small := columns([]entry{{0, 1}, {1, -2}, {2, 2}, {3, -1}})
	sortStream(small, &sortScratch{})
	sameEntries(t, "small", small, []entry{{1, -2}, {2, 2}, {0, 1}, {3, -1}})
}

// TestSortEntriesReusesBuffer pins the contract Decompose relies on to pay
// for one scratch: a long enough index buffer and histogram set come back
// as they went in, the value buffer is the caller's, and what a sort
// allocates does not grow with n — only the closures handed to par are
// left, the same for 2 chunks as for 8.
func TestSortEntriesReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	random := func(n int) stream {
		s := stream{make([]uint32, n), make([]float64, n)}
		for i := range s.val {
			s.idx[i], s.val[i] = uint32(i), rng.NormFloat64()
		}
		return s
	}
	small, large := random(2*par.Threshold), random(8*par.Threshold)
	vtmp := make([]float64, len(large.val))
	var s sortScratch
	sortEntries(large, vtmp, &s)
	idx, hist := &s.idx[0], &s.hist[0]
	allocs := func(st stream) float64 {
		return testing.AllocsPerRun(5, func() { sortEntries(st, vtmp, &s) })
	}
	oneChunk, smallAllocs, largeAllocs := allocs(random(par.Threshold-1)), allocs(small), allocs(large)
	if &s.idx[0] != idx || &s.hist[0] != hist {
		t.Fatal("a sufficient scratch was replaced")
	}
	if oneChunk > smallAllocs || largeAllocs > smallAllocs {
		t.Fatalf("sorting %d, %d and %d entries allocates %v, %v and %v objects: allocations grow with n",
			par.Threshold-1, len(small.val), len(large.val), oneChunk, smallAllocs, largeAllocs)
	}
	// testing.AllocsPerRun pins GOMAXPROCS to 1, where par runs every
	// chunk on the caller: what it counts is the closure of each of the
	// two par calls a pass, and the skip mask's closure, partials and
	// wrapper (19 objects). What a fan-out adds at more workers is
	// counted by par's TestAllocsPerCallAtTwoWorkers.
	if maxAllocs := float64(2*8 + 1 + 4); smallAllocs > maxAllocs {
		t.Fatalf("sorting %d entries allocates %v objects, want at most %v", len(small.val), smallAllocs, maxAllocs)
	}
	s = sortScratch{idx: make([]uint32, 10)}
	if sortEntries(small, vtmp, &s); len(s.idx) != len(small.val) || len(s.hist) != par.NumChunks(len(small.val)) {
		t.Fatalf("a short scratch came back with %d indices and %d histograms, want %d and %d",
			len(s.idx), len(s.hist), len(small.val), par.NumChunks(len(small.val)))
	}
}
