package analytics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tango/internal/refactor"
	"tango/internal/synth"
	"tango/internal/tensor"
)

func TestDetectComponentsCentroid(t *testing.T) {
	f := tensor.New(64, 64)
	// One crisp square blob centered at (20, 30).
	for r := 18; r <= 22; r++ {
		for c := 28; c <= 32; c++ {
			f.Set(50, r, c)
		}
	}
	comps := DetectComponents(f, BlobOptions{SigmaK: 3, MinArea: 4})
	if len(comps) != 1 {
		t.Fatalf("components = %d", len(comps))
	}
	if math.Abs(comps[0].Row-20) > 1e-9 || math.Abs(comps[0].Col-30) > 1e-9 {
		t.Fatalf("centroid = (%v, %v)", comps[0].Row, comps[0].Col)
	}
	if comps[0].Area != 25 || comps[0].Peak != 50 {
		t.Fatalf("component = %+v", comps[0])
	}
}

func TestDetectComponentsMatchesDetectBlobs(t *testing.T) {
	f, _ := synth.XGC(synth.DefaultXGC(128, 5))
	o := DefaultBlobOptions()
	comps := DetectComponents(f, o)
	stats := DetectBlobs(f, o)
	if len(comps) != stats.Count {
		t.Fatalf("components %d vs blobs %d", len(comps), stats.Count)
	}
	var area float64
	for _, c := range comps {
		area += c.Area
	}
	if area != stats.TotalArea {
		t.Fatalf("area %v vs %v", area, stats.TotalArea)
	}
}

func TestTrackBlobsFollowsMovingBlob(t *testing.T) {
	// One blob moving 2 cells/frame along the column axis.
	frames := make([]*tensor.Tensor, 6)
	for s := range frames {
		f := tensor.New(64, 64)
		for r := 0; r < 64; r++ {
			for c := 0; c < 64; c++ {
				dr, dc := float64(r)-30, float64(c)-(10+2*float64(s))
				f.Set(10*math.Exp(-(dr*dr+dc*dc)/8), r, c)
			}
		}
		frames[s] = f
	}
	tracks := TrackBlobs(frames, BlobOptions{SigmaK: 3, MinArea: 4}, 5)
	if len(tracks) != 1 {
		t.Fatalf("tracks = %d", len(tracks))
	}
	tr := tracks[0]
	if tr.Len() != 6 || tr.Start != 0 {
		t.Fatalf("track = %+v", tr)
	}
	if sp := tr.MeanSpeed(); math.Abs(sp-2) > 0.2 {
		t.Fatalf("speed = %v, want ~2", sp)
	}
}

func TestTrackBlobsGateBreaksTrack(t *testing.T) {
	// A blob that teleports farther than the gate starts a new track.
	mk := func(col float64) *tensor.Tensor {
		f := tensor.New(64, 64)
		for r := 0; r < 64; r++ {
			for c := 0; c < 64; c++ {
				dr, dc := float64(r)-30, float64(c)-col
				f.Set(10*math.Exp(-(dr*dr+dc*dc)/8), r, c)
			}
		}
		return f
	}
	frames := []*tensor.Tensor{mk(10), mk(12), mk(50)}
	tracks := TrackBlobs(frames, BlobOptions{SigmaK: 3, MinArea: 4}, 5)
	if len(tracks) != 2 {
		t.Fatalf("tracks = %d, want 2 (gate break)", len(tracks))
	}
}

func TestXGCSequenceTracking(t *testing.T) {
	opts := synth.DefaultXGC(192, 3)
	opts.Blobs = 6
	frames, truth := synth.XGCSequence(opts, 5, 1.5)
	if len(frames) != 5 || len(truth) != 5 {
		t.Fatalf("frames = %d", len(frames))
	}
	tracks := TrackBlobs(frames, DefaultBlobOptions(), 8)
	st := SummarizeTracks(tracks, 3)
	if st.Tracks == 0 {
		t.Fatal("no persistent tracks found")
	}
	// Injected blobs move 1.5 cells/frame; tracked speed should be in
	// that ballpark.
	if st.MeanSpeed < 0.5 || st.MeanSpeed > 3 {
		t.Fatalf("tracked speed = %v, want ~1.5", st.MeanSpeed)
	}
}

func TestTrackingSurvivesReduction(t *testing.T) {
	// The Motivation-3 story for dynamics: tracking statistics on
	// bound-controlled reconstructions stay close to full-data tracking.
	opts := synth.DefaultXGC(192, 7)
	opts.Blobs = 6
	frames, _ := synth.XGCSequence(opts, 4, 1.5)

	var reduced []*tensor.Tensor
	for _, f := range frames {
		h, err := refactor.Decompose(f, refactor.Options{Levels: 3, Bounds: []float64{0.05}})
		if err != nil {
			t.Fatal(err)
		}
		cur, err := h.CursorForBound(0.05)
		if err != nil {
			t.Fatal(err)
		}
		reduced = append(reduced, h.Recompose(cur))
	}
	o := DefaultBlobOptions()
	ref := SummarizeTracks(TrackBlobs(frames, o, 8), 2)
	red := SummarizeTracks(TrackBlobs(reduced, o, 8), 2)
	if e := red.RelErrVs(ref); e > 0.35 {
		t.Fatalf("tracking outcome error at bound 0.05 = %v", e)
	}
}

func TestTrackStatsRelErr(t *testing.T) {
	a := TrackStats{Tracks: 10, MeanLength: 5, MeanSpeed: 2}
	if a.RelErrVs(a) != 0 {
		t.Fatal("self relerr nonzero")
	}
	b := TrackStats{Tracks: 5, MeanLength: 5, MeanSpeed: 2}
	if e := b.RelErrVs(a); math.Abs(e-0.5/3) > 1e-12 {
		t.Fatalf("relerr = %v", e)
	}
	zero := TrackStats{}
	if e := zero.RelErrVs(a); e <= 0 || math.IsInf(e, 0) {
		t.Fatalf("zero stats relerr = %v", e)
	}
}

// eachComponentBool is eachComponent as it stood with one visited bool
// per cell: the bitset flood fill's oracle.
func eachComponentBool(t *tensor.Tensor, o BlobOptions, visit func(Component)) {
	dims := t.Dims()
	if len(dims) != 2 {
		panic(fmt.Sprintf("analytics: blob detection expects 2D, got %v", dims))
	}
	rows, cols := dims[0], dims[1]
	data := t.Data()

	mean, variance := meanVariance(data)
	if variance == 0 {
		// A constant field has no background fluctuation to deviate from.
		return
	}
	thresh := mean + o.SigmaK*math.Sqrt(variance)

	// Iterative flood fill (explicit stack; the grid can be millions of
	// cells).
	visited := make([]bool, len(data))
	var stack []int
	for start := range data {
		if visited[start] || data[start] < thresh {
			continue
		}
		var area, sumR, sumC, peak float64
		peak = math.Inf(-1)
		stack = append(stack[:0], start)
		visited[start] = true
		for len(stack) > 0 {
			idx := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			r, c := idx/cols, idx%cols
			area++
			sumR += float64(r)
			sumC += float64(c)
			if data[idx] > peak {
				peak = data[idx]
			}
			for _, nb := range [4][2]int{{r - 1, c}, {r + 1, c}, {r, c - 1}, {r, c + 1}} {
				nr, nc := nb[0], nb[1]
				if nr < 0 || nr >= rows || nc < 0 || nc >= cols {
					continue
				}
				ni := nr*cols + nc
				if !visited[ni] && data[ni] >= thresh {
					visited[ni] = true
					stack = append(stack, ni)
				}
			}
		}
		if int(area) >= o.MinArea {
			visit(Component{Row: sumR / area, Col: sumC / area, Area: area, Peak: peak})
		}
	}
}

// TestBitsetFloodFillMatchesBool: eachComponent reports the components of
// eachComponentBool — same order, same centroids, areas and peaks to the
// bit — on XGC fields and on random fields whose cell counts are not
// multiples of 64, with blobs on the last cells of a word and of the grid.
func TestBitsetFloodFillMatchesBool(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var fields []*tensor.Tensor
	for _, n := range []int{65, 129} {
		fields = append(fields, XGCApp().Generate(n, int64(n)))
	}
	for _, dims := range [][2]int{{1, 1}, {7, 9}, {63, 65}, {100, 31}} {
		f := tensor.New(dims[0], dims[1])
		for i := range f.Data() {
			f.Data()[i] = rng.NormFloat64()
			if rng.Intn(8) == 0 || i%64 == 63 || i == f.Len()-1 {
				f.Data()[i] += 6
			}
		}
		fields = append(fields, f)
	}
	for fi, f := range fields {
		for _, o := range []BlobOptions{DefaultBlobOptions(), {SigmaK: 1, MinArea: 1}, {SigmaK: 0.5, MinArea: 3}} {
			var got, want []Component
			eachComponent(f, o, func(c Component) { got = append(got, c) })
			eachComponentBool(f, o, func(c Component) { want = append(want, c) })
			if len(got) != len(want) {
				t.Fatalf("field %d %+v: %d components, []bool fill %d", fi, o, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if math.Float64bits(g.Row) != math.Float64bits(w.Row) || math.Float64bits(g.Col) != math.Float64bits(w.Col) ||
					g.Area != w.Area || math.Float64bits(g.Peak) != math.Float64bits(w.Peak) {
					t.Fatalf("field %d %+v component %d: %+v, []bool fill %+v", fi, o, i, g, w)
				}
			}
			if fi == 0 && o == DefaultBlobOptions() && len(want) == 0 {
				t.Fatal("the XGC field has no blob to compare")
			}
		}
	}
}

// TestFloodFillAllocatesOnlyItsBitset: on an XGC field the flood fill's
// one heap object is its visited bitset, n/64 words; the stack stays in
// its array.
func TestFloodFillAllocatesOnlyItsBitset(t *testing.T) {
	f := XGCApp().Generate(513, 42)
	n := 0
	if a := testing.AllocsPerRun(3, func() { eachComponent(f, DefaultBlobOptions(), func(Component) { n++ }) }); a != 1 || n == 0 {
		t.Fatalf("eachComponent allocates %v objects over %d components, want the bitset alone", a, n)
	}
}
