package errmetric

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"tango/internal/par"
)

// NRMSEOf and PSNROf measure xhat against x with stats built for the
// one call.
func NRMSEOf(x, xhat []float64) float64 { return NewStats(x).NRMSE(x, xhat) }
func PSNROf(x, xhat []float64) float64  { return NewStats(x).PSNR(x, xhat) }

func TestRMSEKnownValues(t *testing.T) {
	x := []float64{0, 0, 0, 0}
	xhat := []float64{1, 1, 1, 1}
	if got := RMSE(x, xhat); got != 1 {
		t.Fatalf("RMSE = %v, want 1", got)
	}
	if got := MSE([]float64{3}, []float64{1}); got != 4 {
		t.Fatalf("MSE = %v, want 4", got)
	}
}

func TestRMSEPerfect(t *testing.T) {
	x := []float64{1, 2, 3}
	if got := RMSE(x, x); got != 0 {
		t.Fatalf("RMSE(x,x) = %v", got)
	}
}

func TestNRMSENormalization(t *testing.T) {
	x := []float64{0, 10} // range 10
	xhat := []float64{1, 10}
	// RMSE = sqrt(0.5); NRMSE = sqrt(0.5)/10
	want := math.Sqrt(0.5) / 10
	if got := NRMSEOf(x, xhat); math.Abs(got-want) > 1e-15 {
		t.Fatalf("NRMSE = %v, want %v", got, want)
	}
}

func TestNRMSEZeroRange(t *testing.T) {
	x := []float64{5, 5}
	if got := NRMSEOf(x, x); got != 0 {
		t.Fatalf("perfect zero-range NRMSE = %v", got)
	}
	if got := NRMSEOf(x, []float64{5, 6}); !math.IsInf(got, 1) {
		t.Fatalf("imperfect zero-range NRMSE = %v, want +Inf", got)
	}
}

func TestPSNRKnownValue(t *testing.T) {
	// peak = 10, MSE = 1 -> PSNR = 10*log10(100) = 20 dB.
	x := []float64{10, 0}
	xhat := []float64{10 - math.Sqrt2, 0} // d² sums to 2, mean 1
	got := PSNROf(x, xhat)
	if math.Abs(got-20) > 1e-9 {
		t.Fatalf("PSNR = %v, want 20", got)
	}
}

func TestPSNRPerfectIsInf(t *testing.T) {
	x := []float64{1, 2}
	if got := PSNROf(x, x); !math.IsInf(got, 1) {
		t.Fatalf("PSNR = %v", got)
	}
}

func TestKindSemantics(t *testing.T) {
	if !NRMSE.Better(0.01, 0.1) || NRMSE.Better(0.1, 0.01) {
		t.Fatal("NRMSE: smaller is better")
	}
	if !PSNR.Better(80, 30) || PSNR.Better(30, 80) {
		t.Fatal("PSNR: larger is better")
	}
	if !NRMSE.Satisfies(0.01, 0.01) || !NRMSE.Satisfies(0.005, 0.01) || NRMSE.Satisfies(0.02, 0.01) {
		t.Fatal("NRMSE Satisfies wrong")
	}
	if !PSNR.Satisfies(35, 30) || PSNR.Satisfies(25, 30) {
		t.Fatal("PSNR Satisfies wrong")
	}
	if NRMSE.String() != "NRMSE" || PSNR.String() != "PSNR" {
		t.Fatal("String names")
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(10, 12); math.Abs(got-0.2) > 1e-15 {
		t.Fatalf("RelErr = %v", got)
	}
	if got := RelErr(0, 0); got != 0 {
		t.Fatalf("RelErr(0,0) = %v", got)
	}
	if got := RelErr(0, 1); !math.IsInf(got, 1) {
		t.Fatalf("RelErr(0,1) = %v", got)
	}
	if got := RelErr(-4, -5); math.Abs(got-0.25) > 1e-15 {
		t.Fatalf("RelErr negative = %v", got)
	}
}

func TestMeasureDispatch(t *testing.T) {
	x := []float64{0, 10}
	xhat := []float64{1, 10}
	if Measure(NRMSE, x, xhat) != NRMSEOf(x, xhat) {
		t.Fatal("Measure NRMSE mismatch")
	}
	if Measure(PSNR, x, xhat) != PSNROf(x, xhat) {
		t.Fatal("Measure PSNR mismatch")
	}
}

func TestNRMSEScaleInvarianceProperty(t *testing.T) {
	// NRMSE is invariant to affine rescaling of both signals.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + rng.Intn(64)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = x[i] + 0.1*rng.NormFloat64()
		}
		base := NRMSEOf(x, y)
		a, b := 3.7, -11.0
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range x {
			xs[i] = a*x[i] + b
			ys[i] = a*y[i] + b
		}
		scaled := NRMSEOf(xs, ys)
		return math.Abs(base-scaled) < 1e-9*(1+base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPSNRMonotoneInNoiseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 5
		}
		noisy := func(sigma float64) []float64 {
			r2 := rand.New(rand.NewSource(seed + 1))
			y := make([]float64, n)
			for i := range y {
				y[i] = x[i] + sigma*r2.NormFloat64()
			}
			return y
		}
		return PSNROf(x, noisy(0.01)) > PSNROf(x, noisy(1.0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MSE([]float64{1}, []float64{1, 2})
}

func TestSSIMIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	img := make([]float64, 32*32)
	for i := range img {
		img[i] = rng.Float64()
	}
	if got := ssimSlices(img, img, 32, 32); math.Abs(got-1) > 1e-12 {
		t.Fatalf("SSIM(x,x) = %v", got)
	}
}

func TestSSIMDegradesWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rows, cols := 32, 32
	ref := make([]float64, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			ref[r*cols+c] = math.Sin(float64(r)/4) * math.Cos(float64(c)/4)
		}
	}
	noisy := func(sigma float64) []float64 {
		out := make([]float64, len(ref))
		for i := range out {
			out[i] = ref[i] + sigma*rng.NormFloat64()
		}
		return out
	}
	low := ssimSlices(ref, noisy(0.05), rows, cols)
	high := ssimSlices(ref, noisy(0.8), rows, cols)
	if !(low > high) {
		t.Fatalf("SSIM not monotone: %v vs %v", low, high)
	}
	if !(low > 0.7) {
		t.Fatalf("light noise SSIM too low: %v", low)
	}
}

func TestSSIMShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SSIM(0, 3, func(int, []float64) {}, func(int, []float64) {})
}

func TestDice(t *testing.T) {
	a := []bool{true, true, false, false}
	b := []bool{true, false, true, false}
	// |A∩B|=1, |A|=2, |B|=2 -> 2/4 = 0.5
	if got := Dice(a, b); got != 0.5 {
		t.Fatalf("Dice = %v", got)
	}
	if got := Dice(a, a); got != 1 {
		t.Fatalf("Dice(x,x) = %v", got)
	}
	if got := Dice([]bool{false}, []bool{false}); got != 1 {
		t.Fatalf("Dice(empty,empty) = %v", got)
	}
	if got := Dice([]bool{true}, []bool{false}); got != 0 {
		t.Fatalf("disjoint Dice = %v", got)
	}
}

func TestThresholdMask(t *testing.T) {
	m := ThresholdMask([]float64{1, 2, 3}, 2)
	if m[0] || !m[1] || !m[2] {
		t.Fatalf("mask = %v", m)
	}
}

// TestStatsMatchesFreeFunctions pins the precomputed-stats path to the
// free functions bit for bit across varied signals, including
// degenerate ones (constant, zero-peak is impossible with nonzero data,
// so an all-zero reference covers it).
func TestStatsMatchesFreeFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	signals := [][]float64{
		make([]float64, 64), // all zeros: zero range, zero peak
		{5, 5, 5, 5},        // constant, nonzero
		{-3, 0, 7, 1e-9, -2.5},
	}
	big := make([]float64, 10000)
	for i := range big {
		big[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
	}
	signals = append(signals, big)
	for si, x := range signals {
		st := NewStats(x)
		if st.N != len(x) {
			t.Errorf("signal %d: N=%d want %d", si, st.N, len(x))
		}
		if got, want := st.Range(), Range(x); got != want {
			t.Errorf("signal %d: Range %v != %v", si, got, want)
		}
		for trial := 0; trial < 3; trial++ {
			xhat := make([]float64, len(x))
			for i := range xhat {
				xhat[i] = x[i] + rng.NormFloat64()*0.1*float64(trial)
			}
			if got, want := st.NRMSE(x, xhat), NRMSEOf(x, xhat); got != want {
				t.Errorf("signal %d trial %d: NRMSE %v != %v", si, trial, got, want)
			}
			if got, want := st.PSNR(x, xhat), PSNROf(x, xhat); got != want {
				t.Errorf("signal %d trial %d: PSNR %v != %v", si, trial, got, want)
			}
			for _, k := range []Kind{NRMSE, PSNR} {
				if got, want := st.Measure(k, x, xhat), Measure(k, x, xhat); got != want {
					t.Errorf("signal %d trial %d: Measure(%v) %v != %v", si, trial, k, got, want)
				}
			}
		}
	}
}

// fromSSE is the metric of a sum of squared errors over st's N points,
// through the formulas the free functions use.
func fromSSE(st Stats, k Kind, sse float64) float64 {
	mse := sse / float64(st.N)
	if k == PSNR {
		return st.psnrFromMSE(mse)
	}
	return st.nrmseFromRMSE(math.Sqrt(mse))
}

// TestStatsFromSSERoundTrip checks that the metric of the exact sum of
// squared errors reproduces the direct metric computation, and that
// SSEBudget inverts it at the bound.
func TestStatsFromSSERoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, 5000)
	xhat := make([]float64, 5000)
	for i := range x {
		x[i] = rng.NormFloat64() * 10
		xhat[i] = x[i] + rng.NormFloat64()*0.01
	}
	st := NewStats(x)
	var sse float64
	for i := range x {
		d := x[i] - xhat[i]
		sse += d * d
	}
	for _, k := range []Kind{NRMSE, PSNR} {
		got := fromSSE(st, k, sse)
		want := Measure(k, x, xhat)
		if got != want {
			t.Errorf("%v of the SSE = %v, direct measure %v", k, got, want)
		}
	}
	// Budget inversion: an SSE exactly at the budget satisfies the
	// bound; slightly above does not (up to the round trip's rounding,
	// checked with a 1-ulp-scale margin via Nextafter).
	for _, tc := range []struct {
		k     Kind
		bound float64
	}{{NRMSE, 1e-3}, {NRMSE, 0.5}, {PSNR, 30}, {PSNR, 80}} {
		budget := st.SSEBudget(tc.k, tc.bound)
		if budget <= 0 {
			t.Fatalf("budget %v for %v bound %v", budget, tc.k, tc.bound)
		}
		if acc := fromSSE(st, tc.k, budget); !tc.k.Satisfies(acc, tc.bound) {
			// The analytic inversion can land a rounding step past the
			// bound; it must be within one ulp of satisfying.
			if acc2 := fromSSE(st, tc.k, math.Nextafter(budget, 0)); !tc.k.Satisfies(acc2, tc.bound) {
				t.Errorf("%v bound %v: the metric of the budget, %v, does not satisfy", tc.k, tc.bound, acc)
			}
		}
		if acc := fromSSE(st, tc.k, budget*1.01); tc.k.Satisfies(acc, tc.bound) {
			t.Errorf("%v bound %v: SSE 1%% over budget still satisfies (%v)", tc.k, tc.bound, acc)
		}
	}
	// Degenerate references get a zero budget.
	zero := NewStats(make([]float64, 8))
	if b := zero.SSEBudget(NRMSE, 0.1); b != 0 {
		t.Errorf("zero-range NRMSE budget %v, want 0", b)
	}
	if b := zero.SSEBudget(PSNR, 30); b != 0 {
		t.Errorf("zero-peak PSNR budget %v, want 0", b)
	}
}

// TestNewStatsPanicsOnEmpty matches MSE's contract.
func TestNewStatsPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStats(nil)
}

// statsSerial is NewStats as one serial scan (less the mean it kept):
// the chunk fold's oracle.
func statsSerial(x []float64) Stats {
	s := Stats{Min: math.Inf(1), Max: math.Inf(-1), N: len(x)}
	for _, v := range x {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		if a := math.Abs(v); a > s.Peak {
			s.Peak = a
		}
	}
	return s
}

// TestRangeFoldsMatchSerialScans: NewStats' chunk fold, and Range,
// NRMSEOf and PSNROf on it, give the bits of one serial scan on inputs
// below par.Threshold and across several chunks, at one and two workers.
// The inputs mix NaN, ±Inf and ±0, and some hold only zeros, or only
// zeros and values of one sign, so that an extreme is a tie of +0 and −0
// decided by which comes first.
func TestRangeFoldsMatchSerialScans(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(5))
	negZero := math.Copysign(0, -1)
	draws := map[string]func() float64{
		"mixed": func() float64 {
			switch rng.Intn(20) {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1 - 2*rng.Intn(2))
			case 2:
				return negZero
			case 3:
				return 0
			}
			return rng.NormFloat64() * 100
		},
		"zeros":    func() float64 { return []float64{0, negZero, negZero, math.NaN()}[rng.Intn(4)] },
		"nonneg":   func() float64 { return []float64{0, negZero, rng.Float64(), math.NaN()}[rng.Intn(4)] },
		"nonpos":   func() float64 { return []float64{0, negZero, -rng.Float64()}[rng.Intn(3)] },
		"all-nan":  func() float64 { return math.NaN() },
		"all-+inf": func() float64 { return math.Inf(1) },
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, n := range []int{1, 5, 4096, 5*par.Threshold + 3} {
		for name, draw := range draws {
			x, xhat := make([]float64, n), make([]float64, n)
			for i := range x {
				x[i] = draw()
				xhat[i] = x[i] + rng.NormFloat64()
			}
			want := statsSerial(x)
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				got := NewStats(x)
				if !same(got.Min, want.Min) || !same(got.Max, want.Max) || !same(got.Peak, want.Peak) || got.N != n {
					t.Fatalf("n=%d %s procs=%d: NewStats %+v, serial %+v", n, name, procs, got, want)
				}
				if r := Range(x); !same(r, want.Max-want.Min) {
					t.Fatalf("n=%d %s procs=%d: Range %v, serial %v", n, name, procs, r, want.Max-want.Min)
				}
				if got, want := NRMSEOf(x, xhat), want.NRMSE(x, xhat); !same(got, want) {
					t.Fatalf("n=%d %s procs=%d: NRMSEOf %v, serial %v", n, name, procs, got, want)
				}
				if got, want := PSNROf(x, xhat), want.PSNR(x, xhat); !same(got, want) {
					t.Fatalf("n=%d %s procs=%d: PSNROf %v, serial %v", n, name, procs, got, want)
				}
			}
		}
	}
	if r := Range(nil); !math.IsInf(r, -1) {
		t.Fatalf("Range(nil) = %v, want -Inf as the serial scan gives", r)
	}
}

// Range returns max(x) - min(x), one extremes fold: what NewStats(x).Range()
// gives, without NewStats' panic on empty input.
func Range(x []float64) float64 { return extremes(x).Range() }
