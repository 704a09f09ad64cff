package refactor

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"tango/internal/tensor"
)

func benchGrid(n int) *tensor.Tensor {
	t := tensor.New(n, n)
	d := t.Data()
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			d[r*n+c] = math.Sin(8*math.Pi*float64(r)/float64(n)) +
				math.Cos(6*math.Pi*float64(c)/float64(n))
		}
	}
	return t
}

func BenchmarkRestrict1025(b *testing.B) {
	f := benchGrid(1025)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Restrict(f, 2)
	}
}

func BenchmarkProlongate1025(b *testing.B) {
	f := benchGrid(1025)
	c := Restrict(f, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Prolongate(c, []int{1025, 1025}, 2)
	}
}

func BenchmarkProlongate3D(b *testing.B) {
	f := tensor.New(65, 65, 65)
	for i := range f.Data() {
		f.Data()[i] = float64(i % 17)
	}
	c := Restrict(f, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Prolongate(c, []int{65, 65, 65}, 2)
	}
}

// BenchmarkRecompose1025 measures Algorithm 1's prolongate-and-add loop
// at the full cursor: three levels, so two prolongations (513² and 1025²)
// and every entry applied.
func BenchmarkRecompose1025(b *testing.B) {
	h, err := Decompose(benchGrid(1025), Options{Levels: 3})
	if err != nil {
		b.Fatal(err)
	}
	total := h.TotalEntries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Recompose(total)
	}
}

func BenchmarkLadderSearch513(b *testing.B) {
	f := benchGrid(513)
	opts := Options{Levels: 3, Bounds: []float64{1e-1, 1e-2, 1e-3}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(f, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompose1025 measures the decomposition kernels alone
// (pyramid, chunked extraction, radix sort) without ladder search.
func BenchmarkDecompose1025(b *testing.B) {
	f := benchGrid(1025)
	opts := Options{Levels: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(f, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLadder1025 measures the full decomposition with ladder
// construction at the large grid — the single-sweep path end to end.
func BenchmarkLadder1025(b *testing.B) {
	f := benchGrid(1025)
	opts := Options{Levels: 4, Bounds: []float64{1e-1, 1e-2, 1e-3}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(f, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepCoarseZone1025 isolates runSweep's basis walk over the
// coarse (513²) zone of the `refactor` workload's 1025² hierarchy: in
// stream order, by descending magnitude, and in index order (NoSort), on
// one core. Each entry's composed basis lands on scattered rows of the
// level-0 error field in stream order and on neighbouring ones in index
// order.
func BenchmarkSweepCoarseZone1025(b *testing.B) {
	orig := benchGrid(1025)
	for _, bc := range []struct {
		name   string
		noSort bool
	}{{"stream", false}, {"index", true}} {
		h, err := Decompose(orig, Options{Levels: 3, NoSort: bc.noSort})
		if err != nil {
			b.Fatal(err)
		}
		dims0, cd, aug := h.levelDims[0], h.levelDims[1], h.augs[1]
		cols := make([][][]wpt, len(dims0))
		for dim := range cols {
			cols[dim] = h.composedColumns(1, dim)
		}
		walk := newBasisWalk(tensor.Strides(dims0))
		idx := make([]int, len(dims0))
		errv := slices.Clone(orig.Data())
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var sse float64
				for k, ix := range aug.idx {
					unravel(int(ix), cd, idx)
					for dim, j := range idx {
						walk.basis[dim] = cols[dim][j]
					}
					sse = walk.apply(errv, sse, aug.val[k])
				}
				sweepSink = sse
			}
		})
	}
}

// sweepSink keeps BenchmarkSweepCoarseZone1025's result live.
var sweepSink float64

// BenchmarkEncodeEntries isolates the entry-stream encoder; the alloc
// count is the point (scratch batching keeps it at zero).
func BenchmarkEncodeEntries(b *testing.B) {
	f := benchGrid(257)
	h, err := Decompose(f, Options{Levels: 2})
	if err != nil {
		b.Fatal(err)
	}
	aug := h.augs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf writeCounter
		if _, err := EncodeEntries(&buf, aug.idx, aug.val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSegmentsQuery(b *testing.B) {
	f := benchGrid(513)
	h, err := Decompose(f, Options{Levels: 4})
	if err != nil {
		b.Fatal(err)
	}
	total := h.TotalEntries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Segments(total/4, 3*total/4)
	}
}

func BenchmarkEncode(b *testing.B) {
	f := benchGrid(257)
	h, err := Decompose(f, Options{Levels: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf writeCounter
		if err := h.Encode(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncode1025 writes the hierarchy the `refactor` workload
// writes into a fresh bytes.Buffer, as the workload does, so B/op shows
// what the buffer allocates beside its output (SetBytes).
func BenchmarkEncode1025(b *testing.B) {
	h, err := Decompose(benchGrid(1025), Options{Levels: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(h.encodedLen()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := h.Encode(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode1025 reads back the hierarchy the `refactor` workload
// writes (three levels, ~985k entries): the entry streams are all but
// 1/16 of the bytes, so this is decodeEntries' in-buffer parse plus the
// prefix sums.
func BenchmarkDecode1025(b *testing.B) {
	h, err := Decompose(benchGrid(1025), Options{Levels: 3})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// writeCounter is an io.Writer that only counts (avoids buffer growth in
// the encode benchmark).
type writeCounter int64

func (w *writeCounter) Write(p []byte) (int, error) {
	*w += writeCounter(len(p))
	return len(p), nil
}
