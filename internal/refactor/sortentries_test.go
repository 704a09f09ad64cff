package refactor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
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

// TestSortEntriesMatchesKeyedReference compares the key-free sort with
// the keyed one bit for bit (NaN payloads and the sign of zero included)
// on random streams and on the inputs that pick out one branch each.
func TestSortEntriesMatchesKeyedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	specials := []float64{0, math.Copysign(0, -1), 1, -1,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 5e-324 * 7, -2.2250738585072009e-308,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0xfff8000000000123)}
	cases := []struct {
		name string
		n    int
		gen  func(i int) float64
	}{
		{"normal", 50_000, func(int) float64 { return rng.NormFloat64() }},
		{"wide exponents", 50_000, func(int) float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(600)-300)) }},
		{"few magnitudes", 30_000, func(int) float64 { return float64(rng.Intn(5)-2) * 0.25 }},
		{"specials", 20_000, func(int) float64 { return specials[rng.Intn(len(specials))] }},
		{"specials among normals", 20_000, func(i int) float64 {
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
		{"descending already", 10_000, func(i int) float64 { return float64(10_000 - i) }},
		{"ascending", 10_000, func(i int) float64 { return float64(i) }},
		{"just above radixMin", radixMin + 1, func(int) float64 { return rng.NormFloat64() }},
		{"at radixMin", radixMin, func(int) float64 { return rng.NormFloat64() }},
		{"just below radixMin", radixMin - 1, func(int) float64 { return rng.NormFloat64() }},
	}
	// One ping-pong buffer across the cases, as Decompose passes one across
	// levels: dirty from the previous sort and longer or shorter than the
	// next slice.
	var tmp []Entry
	for _, tc := range cases {
		got := make([]Entry, tc.n)
		for i := range got {
			// Extraction order: ascending, not necessarily dense, indices.
			got[i] = Entry{Index: 3 * i, Value: tc.gen(i)}
		}
		want := slices.Clone(got)
		sortEntriesKeyed(want)
		tmp = sortEntries(got, tmp)
		for i := range want {
			if got[i].Index != want[i].Index || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
				t.Fatalf("%s: position %d: got {%d %v (%#x)}, keyed reference {%d %v (%#x)}", tc.name, i,
					got[i].Index, got[i].Value, math.Float64bits(got[i].Value),
					want[i].Index, want[i].Value, math.Float64bits(want[i].Value))
			}
		}
	}
}

// TestSortEntriesReusesBuffer pins the contract Decompose relies on to pay
// for one buffer: one that is long enough comes back as it went in.
func TestSortEntriesReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	entries := make([]Entry, radixMin+10)
	for i := range entries {
		entries[i] = Entry{Index: i, Value: rng.NormFloat64()}
	}
	tmp := make([]Entry, 2*len(entries))
	if got := sortEntries(entries, tmp); &got[0] != &tmp[0] || len(got) != len(tmp) {
		t.Fatal("a sufficient buffer was replaced")
	}
	if allocs := testing.AllocsPerRun(3, func() { sortEntries(entries, tmp) }); allocs != 0 {
		t.Fatalf("sortEntries with a sufficient buffer allocates %v objects, want 0", allocs)
	}
	if got := sortEntries(entries, tmp[:10]); len(got) != len(entries) {
		t.Fatalf("a short buffer came back with %d entries, want %d", len(got), len(entries))
	}
}
