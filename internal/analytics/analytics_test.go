package analytics

import (
	"math"
	"runtime"
	"testing"

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
