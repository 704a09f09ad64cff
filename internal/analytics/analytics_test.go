package analytics

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"tango/internal/errmetric"
	"tango/internal/par"
	"tango/internal/refactor"
	"tango/internal/synth"
	"tango/internal/tensor"
)

func TestDetectBlobsFindsInjectedBlobs(t *testing.T) {
	f, blobs := synth.XGC(synth.DefaultXGC(256, 1))
	st := DetectBlobs(f, DefaultBlobOptions())
	if st.Count == 0 {
		t.Fatal("no blobs detected")
	}
	// Detection should find roughly the injected count (merging/missing
	// a couple is acceptable for threshold detection over turbulence).
	if st.Count < len(blobs)/2 || st.Count > len(blobs)*2 {
		t.Fatalf("detected %d, injected %d", st.Count, len(blobs))
	}
	if st.AvgDiameter <= 0 || st.TotalArea <= 0 || st.MeanPeak <= 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
}

func TestDetectBlobsEmptyField(t *testing.T) {
	f := tensor.New(64, 64) // constant zero: nothing above mean + kσ
	st := DetectBlobs(f, DefaultBlobOptions())
	if st.Count != 0 {
		t.Fatalf("blobs in constant field: %+v", st)
	}
}

func TestDetectBlobsMinAreaFilter(t *testing.T) {
	f := tensor.New(32, 32)
	f.Set(100, 5, 5) // single-cell spike
	st := DetectBlobs(f, BlobOptions{SigmaK: 3, MinArea: 4})
	if st.Count != 0 {
		t.Fatal("single-cell spike should be filtered by MinArea")
	}
	st = DetectBlobs(f, BlobOptions{SigmaK: 3, MinArea: 1})
	if st.Count != 1 {
		t.Fatalf("spike not detected with MinArea=1: %+v", st)
	}
}

func TestBlobRelErrIdentity(t *testing.T) {
	f, _ := synth.XGC(synth.DefaultXGC(128, 2))
	st := DetectBlobs(f, DefaultBlobOptions())
	if got := st.RelErrVs(st); got != 0 {
		t.Fatalf("self relative error = %v", got)
	}
}

func TestBlobsRequire2D(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on 1D input")
		}
	}()
	DetectBlobs(tensor.New(16), DefaultBlobOptions())
}

// Render is the GenASiS rendering as CompareRenders built it before it
// rendered rows: the whole field normalized to [0,1] with gamma 0.5.
func Render(t *tensor.Tensor) []float64 {
	dims := t.Dims()
	if len(dims) != 2 {
		panic(fmt.Sprintf("analytics: Render expects 2D, got %v", dims))
	}
	min, max := t.MinMax()
	scale := max - min
	if scale == 0 {
		scale = 1
	}
	data, out := t.Data(), make([]float64, t.Len())
	par.For(len(out), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x := (data[i] - min) / scale
			out[i] = math.Sqrt(x)
		}
	})
	return out
}

// fieldRenders is CompareRenders as it stood before it rendered rows, the
// oracle: both fields rendered whole, SSIM over the two images normalised
// by the reference image's range as the slice SSIM did (read as they are
// on [+0, 1]), and Dice of the images' masks at the bright cut.
func fieldRenders(ref, rec *tensor.Tensor) RenderQuality {
	rows, cols := ref.Dims()[0], ref.Dims()[1]
	ri, xi := Render(ref), Render(rec)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range ri {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	scale := hi - lo
	if scale == 0 {
		scale = 1
	}
	a, b := ri, xi
	if math.Float64bits(lo) != 0 || scale != 1 {
		norm := func(src []float64) []float64 {
			out := make([]float64, len(src))
			for i, v := range src {
				out[i] = (v - lo) / scale
			}
			return out
		}
		a, b = norm(ri), norm(xi)
	}
	rowsOf := func(x []float64) func(int, []float64) {
		return func(r int, dst []float64) { copy(dst, x[r*cols:(r+1)*cols]) }
	}
	var inter, na, nb int
	for i := range ri {
		ina, inb := ri[i] >= 0.6, xi[i] >= 0.6
		if ina {
			na++
		}
		if inb {
			nb++
		}
		if ina && inb {
			inter++
		}
	}
	q := RenderQuality{SSIM: errmetric.SSIM(rows, cols, rowsOf(a), rowsOf(b)), Dice: 1}
	if na+nb != 0 {
		q.Dice = 2 * float64(inter) / float64(na+nb)
	}
	return q
}

// TestCompareRendersMatchesFieldRenders compares CompareRenders and
// GenASiS's OutcomeErr with the whole-field renders bit for bit, at one
// and two workers: at 1025² (a GenASiS field and its reconstruction
// from a quarter of the stream) and at odd shapes, on smooth noisy
// fields, constant ones, ones whose pixels sit on the bright cut, fields
// strewn with NaN, ±Inf and ±0 (also at their minimum), and a range that
// overflows.
func TestCompareRendersMatchesFieldRenders(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(52))
	smooth := func(rows, cols int) *tensor.Tensor {
		f := tensor.New(rows, cols)
		for i := range f.Data() {
			r, c := float64(i/cols), float64(i%cols)
			f.Data()[i] = 3*math.Sin(r/40)*math.Cos(c/25) + 0.2*rng.NormFloat64()
		}
		return f
	}
	noisy := func(f *tensor.Tensor) *tensor.Tensor {
		g := f.Clone()
		for i := range g.Data() {
			g.Data()[i] += 0.3 * rng.NormFloat64()
		}
		return g
	}
	constant := func(rows, cols int) *tensor.Tensor {
		f := tensor.New(rows, cols)
		for i := range f.Data() {
			f.Data()[i] = 2.5
		}
		return f
	}
	strewn := func(f *tensor.Tensor, specials ...float64) *tensor.Tensor {
		g := f.Clone()
		for i := range g.Data() {
			if rng.Intn(50) == 0 {
				g.Data()[i] = specials[rng.Intn(len(specials))]
			}
		}
		return g
	}
	negZero := math.Copysign(0, -1)
	// Values on [0, 1] whose pixels fall exactly on the bright cut
	// (sqrt(0.36) is 0.6) and just below it.
	atCut := func(rows, cols int) *tensor.Tensor {
		levels := []float64{0, 0.36, 0.3599999, 1}
		f := tensor.New(rows, cols)
		for i := range f.Data() {
			f.Data()[i] = levels[rng.Intn(len(levels))]
		}
		f.Data()[0], f.Data()[1] = 0, 1
		return f
	}
	type pair struct {
		name     string
		ref, rec *tensor.Tensor
	}
	var pairs []pair
	ref := synth.GenASiS(1025, 42)
	h, err := refactor.Decompose(ref, refactor.Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	pairs = append(pairs, pair{"genasis", ref, h.Recompose(h.TotalEntries() / 4)})
	for _, shape := range [][2]int{{1025, 1025}, {9, 13}, {130, 257}} {
		rows, cols := shape[0], shape[1]
		f := smooth(rows, cols)
		huge, floor := f.Clone(), f.Clone()
		for i, v := range f.Data() {
			huge.Data()[i] *= 1e308
			floor.Data()[i] = math.Abs(v)
		}
		pairs = append(pairs,
			pair{"smooth", f, noisy(f)},
			pair{"constant ref", constant(rows, cols), f},
			pair{"constant rec", f, constant(rows, cols)},
			pair{"NaN and ±0", strewn(f, math.NaN(), 0, negZero), strewn(f, math.NaN(), negZero)},
			pair{"pixels at the cut", atCut(rows, cols), atCut(rows, cols)},
			pair{"±0 at the minimum", strewn(floor, 0, negZero), strewn(floor, negZero, 0)},
			pair{"±Inf", strewn(f, math.Inf(1), math.Inf(-1)), strewn(f, math.Inf(1))},
			pair{"overflowing range", huge, noisy(f)},
		)
	}
	for _, p := range pairs {
		want := fieldRenders(p.ref, p.rec)
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			got := CompareRenders(p.ref, p.rec)
			if math.Float64bits(got.SSIM) != math.Float64bits(want.SSIM) ||
				math.Float64bits(got.Dice) != math.Float64bits(want.Dice) {
				t.Fatalf("%v %s procs=%d: %+v, field renders %+v", p.ref.Dims(), p.name, procs, got, want)
			}
			if e := GenASiSApp().OutcomeErr(p.ref, p.rec); math.Float64bits(e) != math.Float64bits(want.RelErr()) {
				t.Fatalf("%v %s procs=%d: OutcomeErr %v, field renders %v", p.ref.Dims(), p.name, procs, e, want.RelErr())
			}
		}
	}
}

// TestCompareRendersHoldsNoField: one CompareRenders at 1025² allocates
// less than one 8·n-byte field; rendering both fields whole took two
// fields and SSIM's window scores.
func TestCompareRendersHoldsNoField(t *testing.T) {
	ref := GenASiSApp().Generate(1025, 42)
	rec := ref.Clone()
	rec.Data()[0]++
	CompareRenders(ref, rec)
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		CompareRenders(ref, rec)
	}
	runtime.ReadMemStats(&after)
	field := 8 * uint64(ref.Len())
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b >= field {
		t.Fatalf("CompareRenders allocates %d B per call at 1025², a field is %d B", b, field)
	}
}

func TestRenderNormalizes(t *testing.T) {
	f := synth.GenASiS(64, 3)
	img := Render(f)
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range img {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min < 0 || max > 1 || max-min < 0.5 {
		t.Fatalf("render range [%v,%v]", min, max)
	}
}

// TestRenderMatchesSerialLoop compares Render with its serial loop bit
// for bit at one and two workers, below and above par.Threshold, and
// checks the property SSIM's copy-free path needs: the image's minimum
// is +0 and its maximum exactly 1.
func TestRenderMatchesSerialLoop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{64, 257} {
		f := synth.GenASiS(n, 6)
		min, max := f.MinMax()
		want := make([]float64, f.Len())
		for i, v := range f.Data() {
			x := (v - min) / (max - min)
			want[i] = math.Sqrt(x)
		}
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			img := Render(f)
			lo, hi := math.Inf(1), math.Inf(-1)
			for i, v := range img {
				if math.Float64bits(v) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d procs=%d pixel %d: %v, serial %v", n, procs, i, v, want[i])
				}
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			if math.Float64bits(lo) != 0 || hi != 1 {
				t.Fatalf("n=%d: render range [%v, %v], want [+0, 1]", n, lo, hi)
			}
		}
	}
}

func TestCompareRendersPerfect(t *testing.T) {
	f := synth.GenASiS(64, 4)
	q := CompareRenders(f, f.Clone())
	if math.Abs(q.SSIM-1) > 1e-9 || q.Dice != 1 {
		t.Fatalf("self comparison: %+v", q)
	}
	if q.RelErr() > 1e-9 {
		t.Fatalf("self RelErr = %v", q.RelErr())
	}
}

func TestCompareRendersDegradesWithDecimation(t *testing.T) {
	f := synth.GenASiS(129, 5)
	h, err := refactor.Decompose(f, refactor.Options{Levels: 4})
	if err != nil {
		t.Fatal(err)
	}
	full := CompareRenders(f, h.Recompose(h.TotalEntries()))
	baseOnly := CompareRenders(f, h.Recompose(0))
	if !(baseOnly.SSIM < full.SSIM) {
		t.Fatalf("SSIM should degrade: base %v full %v", baseOnly.SSIM, full.SSIM)
	}
	if !(baseOnly.RelErr() > full.RelErr()) {
		t.Fatal("RelErr should grow with reduction")
	}
}

func TestAnalyzePressure(t *testing.T) {
	f := synth.CFD(128, 6)
	st := AnalyzePressure(f, DefaultPressureOptions())
	if st.HighArea == 0 || st.TotalForce <= 0 {
		t.Fatalf("no high-pressure region: %+v", st)
	}
	// Force over the area must exceed threshold*area (every cell >= thresh).
	if st.TotalForce < st.Threshold*st.HighArea {
		t.Fatalf("force accounting wrong: %+v", st)
	}
	// Fixed-threshold variant agrees with itself.
	st2 := AnalyzePressureAt(f, st.Threshold)
	if st2.HighArea != st.HighArea || st2.TotalForce != st.TotalForce {
		t.Fatalf("AnalyzePressureAt mismatch: %+v vs %+v", st2, st)
	}
	if st.RelErrVs(st) != 0 {
		t.Fatal("self relative error nonzero")
	}
}

func TestAppsOutcomeErrGrowsWithReduction(t *testing.T) {
	// Fig 2's central claim: as decimation deepens, outcome error grows
	// but stays moderate. Verify monotone-ish behavior for each app.
	for _, app := range Apps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			ref := app.Generate(129, 11)
			h, err := refactor.Decompose(ref, refactor.Options{Levels: 5})
			if err != nil {
				t.Fatal(err)
			}
			full := app.OutcomeErr(ref, h.Recompose(h.TotalEntries()))
			half := app.OutcomeErr(ref, h.Recompose(h.TotalEntries()/2))
			none := app.OutcomeErr(ref, h.Recompose(0))
			if full > 1e-9 {
				t.Fatalf("full reconstruction outcome error = %v", full)
			}
			if !(none >= half-1e-9) {
				t.Fatalf("outcome error should not shrink with less data: none=%v half=%v", none, half)
			}
			if none > 1 {
				t.Fatalf("outcome error at base = %v (should stay bounded)", none)
			}
		})
	}
}

// TestAppsOutcomeErrRejectsOtherShapes: every App's OutcomeErr panics on
// a reconstruction of another shape, and the CFD analysis, like the
// other two, on a field that is not 2D.
func TestAppsOutcomeErrRejectsOtherShapes(t *testing.T) {
	panics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Fatalf("%s: no panic", name)
			} else if msg := fmt.Sprint(r); !strings.Contains(msg, "shape mismatch") && !strings.Contains(msg, "expects 2D") {
				t.Fatalf("%s: panic %q", name, msg)
			}
		}()
		f()
	}
	for _, app := range Apps() {
		ref := app.Generate(33, 1)
		for _, rec := range []*tensor.Tensor{tensor.New(33, 32), tensor.New(32, 33), tensor.New(33 * 33), tensor.New(33, 33, 1)} {
			panics(fmt.Sprintf("%s vs %v", app.Name, rec.Dims()), func() { app.OutcomeErr(ref, rec) })
		}
	}
	panics("AnalyzePressure 1D", func() { AnalyzePressure(tensor.New(64), DefaultPressureOptions()) })
	panics("AnalyzePressureAt 3D", func() { AnalyzePressureAt(tensor.New(4, 4, 4), 0) })
}

func TestAppsNamed(t *testing.T) {
	apps := Apps()
	if len(apps) != 3 {
		t.Fatal("want 3 apps")
	}
	want := []string{"XGC", "GenASiS", "CFD"}
	for i, a := range apps {
		if a.Name != want[i] {
			t.Fatalf("apps[%d] = %s", i, a.Name)
		}
	}
}

// BenchmarkOutcome1025 runs each application's OutcomeErr at the
// `refactor` workload's size, on the reference and its reconstruction at
// a quarter of the augmentation stream, as the workload does per rung.
func BenchmarkOutcome1025(b *testing.B) {
	for _, app := range Apps() {
		ref := app.Generate(1025, 42)
		h, err := refactor.Decompose(ref, refactor.Options{Levels: 3})
		if err != nil {
			b.Fatal(err)
		}
		rec := h.Recompose(h.TotalEntries() / 4)
		b.Run(app.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				app.OutcomeErr(ref, rec)
			}
		})
	}
}
