package refactor

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"tango/internal/tensor"
)

// TestLazyPrefixesMatchEager: on random hierarchies of rank 1 to 3, with
// and without a ladder, neither Decompose nor Decode builds the retrieval
// index; the first read builds each level's prefix sums exactly as the
// eager index did, and every rung's size (summed entry by entry) is what
// the index prices its range at.
func TestLazyPrefixesMatchEager(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 24; i++ {
		dims := make([]int, 1+i%3)
		for d := range dims {
			dims[d] = 3 + rng.Intn([]int{400, 40, 12}[len(dims)-1])
		}
		orig := tensor.New(dims...)
		for j := range orig.Data() {
			orig.Data()[j] = math.Sin(float64(j)/9) + 0.1*rng.NormFloat64()
		}
		opts := Options{Levels: 2 + rng.Intn(3), NoSort: rng.Intn(4) == 0}
		if rng.Intn(2) == 0 {
			opts.Bounds = []float64{0.3, 0.1, 0.03}
		}
		h := mustDecompose(t, orig, opts)
		var enc bytes.Buffer
		if err := h.Encode(&enc); err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(&enc)
		if err != nil {
			t.Fatal(err)
		}
		for _, hh := range []*Hierarchy{h, dec} {
			if hh.byteCum.Load() != nil {
				t.Fatalf("dims %v: the index was built before the first retrieval read", dims)
			}
			for l, aug := range hh.augs {
				eager := make([]int64, len(aug.idx)+1)
				for k, ix := range aug.idx {
					eager[k+1] = eager[k] + int64(entrySize(ix))
				}
				if got := hh.byteCums()[l]; !slices.Equal(got, eager) {
					t.Fatalf("dims %v level %d: lazy prefixes differ from eager ones", dims, l)
				}
			}
			prev := 0
			for _, r := range hh.Rungs() {
				if want := hh.BytesForRange(prev, r.Cursor); r.Bytes != want {
					t.Fatalf("dims %v bound %v: rung bytes %d, the index prices %d", dims, r.Bound, r.Bytes, want)
				}
				prev = r.Cursor
			}
		}
	}
}

// TestFirstAppendSegmentsAgreesAcrossGoroutines: eight goroutines make the
// first retrieval read of one decoded hierarchy at once; all get the same
// segments and the same published index (a -race check of its CAS).
func TestFirstAppendSegmentsAgreesAcrossGoroutines(t *testing.T) {
	h := mustDecompose(t, smoothField(65, 3), Options{Levels: 4, Bounds: []float64{0.1, 0.01}})
	var enc bytes.Buffer
	if err := h.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(&enc)
	if err != nil {
		t.Fatal(err)
	}
	total := dec.TotalEntries()
	got := make([][]Segment, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = dec.AppendSegments(nil, total/7, total-i)
		}()
	}
	close(start)
	wg.Wait()
	for i, segs := range got {
		if want := h.AppendSegments(nil, total/7, total-i); !slices.Equal(segs, want) {
			t.Fatalf("goroutine %d: %v, want %v", i, segs, want)
		}
	}
	if p := dec.byteCum.Load(); p == nil || &dec.byteCums()[0][0] != &(*p)[0][0] {
		t.Fatal("the published index is not the one every read uses")
	}
}

// TestDecodeDefersTheIndex: decoding a 1025² hierarchy no longer builds
// the retrieval index; its first read pays for it, at least 8 bytes an
// entry, and later reads pay nothing.
func TestDecodeDefersTheIndex(t *testing.T) {
	h := mustDecompose(t, smoothField(1025, 8), Options{Levels: 3})
	var enc bytes.Buffer
	if err := h.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var dec *Hierarchy
	decode := allocated(func() {
		var err error
		if dec, err = Decode(bytes.NewReader(enc.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	entries := uint64(dec.TotalEntries())
	first := allocated(func() { dec.TotalAugBytes() })
	if first < 8*entries {
		t.Fatalf("the first read allocated %d bytes for %d entries: the index was built before it (Decode allocated %d)", first, entries, decode)
	}
	if again := testing.AllocsPerRun(10, func() { dec.TotalAugBytes() }); again != 0 {
		t.Fatalf("a later read allocates %v objects", again)
	}
}
