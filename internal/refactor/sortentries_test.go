package refactor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"tango/internal/par"
)

// sortEntriesKeyed is the radix sort as it stood before the keys were
// derived on the fly — a key array beside the entries, both ping-ponged —
// kept verbatim as the differential oracle for sortEntries.
func sortEntriesKeyed(entries []Entry) {
	n := len(entries)
	if n < radixMin {
		slices.SortFunc(entries, compareEntries)
		return
	}

	keys := make([]uint64, n)
	for i, e := range entries {
		keys[i] = ^math.Float64bits(math.Abs(e.Value))
	}

	// One scan builds all eight digit histograms; digit counts do not
	// depend on the order of earlier passes.
	var count [8][256]int
	for _, k := range keys {
		for b := uint(0); b < 8; b++ {
			count[b][byte(k>>(8*b))]++
		}
	}

	tmpE := make([]Entry, n)
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
// scatter per pass — kept verbatim as the oracle for the chunked passes.
func sortEntriesSerial(entries, tmp []Entry) []Entry {
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
		{"all equal", radixMin + 5, func(int) float64 { return -3.5 }},
		{"all equal, many chunks", 2 * par.Threshold, func(int) float64 { return -3.5 }},
		{"descending already", 10_000, func(i int) float64 { return float64(10_000 - i) }},
		{"ascending", 10_000, func(i int) float64 { return float64(i) }},
		{"ascending, many chunks", 4 * par.Threshold, func(i int) float64 { return float64(i) }},
		{"just above par.Threshold", par.Threshold + 1, func(int) float64 { return rng.NormFloat64() }},
		{"just below par.Threshold", par.Threshold - 1, func(int) float64 { return rng.NormFloat64() }},
		{"just above radixMin", radixMin + 1, func(int) float64 { return rng.NormFloat64() }},
		{"at radixMin", radixMin, func(int) float64 { return rng.NormFloat64() }},
		{"just below radixMin", radixMin - 1, func(int) float64 { return rng.NormFloat64() }},
	}
}

// sortCaseEntries builds a case's stream in extraction order: ascending,
// not necessarily dense, indices.
func sortCaseEntries(tc sortCase) []Entry {
	entries := make([]Entry, tc.n)
	for i := range entries {
		entries[i] = Entry{Index: 3 * i, Value: tc.gen(i)}
	}
	return entries
}

func sameEntries(t *testing.T, what string, got, want []Entry) {
	t.Helper()
	for i := range want {
		if got[i].Index != want[i].Index || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
			t.Fatalf("%s: position %d: got {%d %v (%#x)}, reference {%d %v (%#x)}", what, i,
				got[i].Index, got[i].Value, math.Float64bits(got[i].Value),
				want[i].Index, want[i].Value, math.Float64bits(want[i].Value))
		}
	}
}

// TestSortEntriesMatchesKeyedReference compares the key-free sort with
// the keyed one bit for bit (NaN payloads and the sign of zero included)
// on random streams and on the inputs that pick out one branch each.
func TestSortEntriesMatchesKeyedReference(t *testing.T) {
	// One scratch across the cases, as Decompose passes one across levels:
	// dirty from the previous sort and longer or shorter than the next
	// slice.
	var s sortScratch
	for _, tc := range sortCases(rand.New(rand.NewSource(23))) {
		got := sortCaseEntries(tc)
		want := slices.Clone(got)
		sortEntriesKeyed(want)
		sortEntries(got, &s)
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
		var tmp []Entry
		for _, tc := range sortCases(rand.New(rand.NewSource(29))) {
			got := sortCaseEntries(tc)
			want := slices.Clone(got)
			tmp = sortEntriesSerial(want, tmp)
			sortEntries(got, &s)
			sameEntries(t, fmt.Sprintf("procs=%d %s", procs, tc.name), got, want)
		}
	}
}

// TestSortEntriesReusesBuffer pins the contract Decompose relies on to pay
// for one scratch: a long enough buffer and histogram set come back as
// they went in, and what a sort allocates does not grow with n — only
// par's per-call dispatch is left, the same for 2 chunks as for 8.
func TestSortEntriesReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	stream := func(n int) []Entry {
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{Index: i, Value: rng.NormFloat64()}
		}
		return entries
	}
	small, large := stream(2*par.Threshold), stream(8*par.Threshold)
	var s sortScratch
	sortEntries(large, &s)
	tmp, hist := &s.tmp[0], &s.hist[0]
	allocs := func(entries []Entry) float64 {
		return testing.AllocsPerRun(5, func() { sortEntries(entries, &s) })
	}
	oneChunk, smallAllocs, largeAllocs := allocs(stream(par.Threshold-1)), allocs(small), allocs(large)
	if &s.tmp[0] != tmp || &s.hist[0] != hist {
		t.Fatal("a sufficient scratch was replaced")
	}
	if oneChunk > smallAllocs || largeAllocs > smallAllocs {
		t.Fatalf("sorting %d, %d and %d entries allocates %v, %v and %v objects: allocations grow with n",
			par.Threshold-1, len(small), len(large), oneChunk, smallAllocs, largeAllocs)
	}
	// The dispatch is two par calls per pass and one for the skip mask.
	if maxAllocs := float64(2*8 + 1 + 4); smallAllocs > maxAllocs {
		t.Fatalf("sorting %d entries allocates %v objects, want at most %v", len(small), smallAllocs, maxAllocs)
	}
	s = sortScratch{tmp: make([]Entry, 10)}
	if sortEntries(small, &s); len(s.tmp) != len(small) || len(s.hist) != par.NumChunks(len(small)) {
		t.Fatalf("a short scratch came back with %d entries and %d histograms, want %d and %d",
			len(s.tmp), len(s.hist), len(small), par.NumChunks(len(small)))
	}
}
