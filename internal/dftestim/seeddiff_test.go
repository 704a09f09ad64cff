package dftestim

// Differential tests pinning the table-driven transforms and the
// ring-buffered estimator bit-identical to the seed implementation. The
// seed code (per-call twiddle evaluation, unbounded sample slice) is
// reproduced verbatim below as the reference: if a refactor of fft.go /
// plan.go / estimator.go perturbs a single float operation, these tests
// fail on the exact size and index.

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
)

// ---- seed FFT (verbatim reference) ----------------------------------------

func seedFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) == 0 {
		return seedRadix2(x, false)
	}
	return seedDirect(x, false)
}

func seedIFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	var out []complex128
	if n&(n-1) == 0 {
		out = seedRadix2(x, true)
	} else {
		out = seedDirect(x, true)
	}
	inv := complex(1/float64(n), 0)
	for i := range out {
		out[i] *= inv
	}
	return out
}

func seedRadix2(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i, v := range x {
		out[bits.Reverse64(uint64(i))>>shift] = v
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := sign * 2 * math.Pi / float64(size)
		wBase := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				even := out[start+k]
				odd := out[start+k+half] * w
				out[start+k] = even + odd
				out[start+k+half] = even - odd
				w *= wBase
			}
		}
	}
	return out
}

func seedDirect(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			angle := sign * 2 * math.Pi * float64(k) * float64(j) / float64(n)
			sum += x[j] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
	return out
}

func seedThreshold(spec []complex128, frac float64) {
	var maxAmp float64
	for k := 1; k < len(spec); k++ {
		if a := cmplx.Abs(spec[k]); a > maxAmp {
			maxAmp = a
		}
	}
	cut := frac * maxAmp
	for k := 1; k < len(spec); k++ {
		if cmplx.Abs(spec[k]) < cut {
			spec[k] = 0
		}
	}
}

func seedFFTReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	return seedFFT(c)
}

// ---- seed estimator (verbatim reference over an unbounded slice) ----------

type seedEstimator struct {
	ThreshFrac float64
	Window     int

	samples []float64
	model   []float64
	fitAt   int
	fitted  bool
}

func (e *seedEstimator) Observe(bw float64) {
	e.samples = append(e.samples, bw)
}

func (e *seedEstimator) Fit() error {
	w := e.Window
	if w <= 0 {
		w = 30
	}
	if len(e.samples) < 4 {
		return fmt.Errorf("dftestim: need at least 4 samples, have %d", len(e.samples))
	}
	if w > len(e.samples) {
		w = len(e.samples)
	}
	start := len(e.samples) - w
	window := e.samples[start:]

	spec := seedFFTReal(window)
	seedThreshold(spec, e.ThreshFrac)
	rec := seedIFFT(spec)

	e.model = make([]float64, w)
	for i, v := range rec {
		bw := real(v)
		if bw < 0 {
			bw = 0
		}
		e.model[i] = bw
	}
	e.fitAt = start
	e.fitted = true
	return nil
}

func (e *seedEstimator) Predict(step int) float64 {
	n := len(e.model)
	idx := (step - e.fitAt) % n
	if idx < 0 {
		idx += n
	}
	return e.model[idx]
}

func (e *seedEstimator) PredictNext() float64 {
	return e.Predict(len(e.samples))
}

// ---- bit-identity helpers -------------------------------------------------

func sameBitsC(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

func sameBitsF(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// diffSizes spans 4–4096: every power of two plus non-power-of-two lengths
// on both sides of the maxDirectTable cutoff (≤128 table-driven, >128
// on-the-fly fallback).
var diffSizes = []int{
	4, 5, 6, 7, 8, 12, 16, 30, 31, 32, 45, 64, 100, 127, 128,
	129, 200, 256, 512, 1000, 1024, 2048, 4096,
}

func TestFFTMatchesSeedImplementation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range diffSizes {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for _, inverse := range []bool{false, true} {
			var got, want []complex128
			if inverse {
				got, want = IFFT(x), seedIFFT(x)
			} else {
				got, want = FFT(x), seedFFT(x)
			}
			for i := range want {
				if !sameBitsC(got[i], want[i]) {
					t.Fatalf("n=%d inverse=%v index %d: got %v want %v (bits differ)",
						n, inverse, i, got[i], want[i])
				}
			}
		}
	}
}

func TestFFTRealMatchesSeedImplementation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range diffSizes {
		x := make([]float64, n)
		for i := range x {
			x[i] = 100 + 40*rng.NormFloat64()
		}
		got, want := FFTReal(x), seedFFTReal(x)
		for i := range want {
			if !sameBitsC(got[i], want[i]) {
				t.Fatalf("n=%d index %d: got %v want %v (bits differ)", n, i, got[i], want[i])
			}
		}
	}
}

// TestEstimatorMatchesSeedImplementation drives the ring-buffered
// estimator and the seed unbounded-slice estimator through the same random
// observe/fit schedule and requires bit-identical models and predictions —
// including after the ring has wrapped many times and for fits whose
// window is still partially filled.
func TestEstimatorMatchesSeedImplementation(t *testing.T) {
	for _, window := range []int{0, 5, 8, 30, 32} {
		rng := rand.New(rand.NewSource(int64(40 + window)))
		e := &Estimator{ThreshFrac: 0.5, Window: window}
		ref := &seedEstimator{ThreshFrac: 0.5, Window: window}
		for step := 0; step < 400; step++ {
			bw := 100 + 40*math.Sin(2*math.Pi*float64(step)/10) + 5*rng.Float64()
			e.Observe(bw)
			ref.Observe(bw)
			if e.Samples() != step+1 {
				t.Fatalf("window=%d: Samples()=%d want %d", window, e.Samples(), step+1)
			}
			if step >= 3 && rng.Intn(7) == 0 {
				errGot, errWant := e.Fit(), ref.Fit()
				if (errGot == nil) != (errWant == nil) {
					t.Fatalf("window=%d step=%d: fit error mismatch %v vs %v", window, step, errGot, errWant)
				}
				model, refModel := e.Model(), ref.model
				if len(model) != len(refModel) {
					t.Fatalf("window=%d step=%d: model len %d want %d", window, step, len(model), len(refModel))
				}
				for i := range refModel {
					if !sameBitsF(model[i], refModel[i]) {
						t.Fatalf("window=%d step=%d model[%d]: got %v want %v (bits differ)",
							window, step, i, model[i], refModel[i])
					}
				}
				for probe := -50; probe < 450; probe += 13 {
					if !sameBitsF(e.Predict(probe), ref.Predict(probe)) {
						t.Fatalf("window=%d step=%d Predict(%d): got %v want %v",
							window, step, probe, e.Predict(probe), ref.Predict(probe))
					}
				}
				if !sameBitsF(e.PredictNext(), ref.PredictNext()) {
					t.Fatalf("window=%d step=%d: PredictNext mismatch", window, step)
				}
			}
		}
	}
}

// TestEstimatorFitZeroAlloc pins the tentpole property: once the window
// buffers exist, Observe + Fit + Predict run without a single heap
// allocation.
func TestEstimatorFitZeroAlloc(t *testing.T) {
	est := NewEstimator()
	for i := 0; i < 64; i++ {
		est.Observe(100 + 40*math.Sin(2*math.Pi*float64(i)/10))
	}
	if err := est.Fit(); err != nil {
		t.Fatal(err)
	}
	step := 64
	allocs := testing.AllocsPerRun(200, func() {
		est.Observe(100 + 40*math.Sin(2*math.Pi*float64(step)/10))
		step++
		if err := est.Fit(); err != nil {
			t.Fatal(err)
		}
		_ = est.Predict(step + 1)
		_ = est.PredictNext()
		_ = est.ModelAt(0)
		_ = est.ModelLen()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Observe+Fit+Predict allocates %.1f/op, want 0", allocs)
	}
}

// TestRefitScheduleRegrowsByDoubling: the model at least doubles, up to
// the window, when a refit outgrows it, so a schedule that lengthens the
// fit step by step regrows it log2(window/first) times, one object each
// (the spectrum and the window are on Fit's stack). The first fit is sized
// to its own length: a fleet node fits once, at 4 samples.
func TestRefitScheduleRegrowsByDoubling(t *testing.T) {
	every := make([]int, 0, 27)
	for w := 4; w <= 30; w++ {
		planFor(w) // plans are shared and cached: warm them
		every = append(every, w)
	}
	for _, c := range []struct {
		fits         []int
		want, model0 int
	}{
		{[]int{10, 14, 20, 24, 30}, 1 + 3, 10}, // a session's refits and two regime refits
		{every, 1 + 4, 4},                      // a refit at every sample: 4, 8, 16, 30
		{[]int{4}, 1 + 1, 4},
	} {
		var e Estimator
		var model0 int
		allocs := testing.AllocsPerRun(20, func() {
			e = Estimator{ThreshFrac: 0.5, Window: 30}
			for i, at := range c.fits {
				for e.Samples() < at {
					e.Observe(float64(e.Samples() % 7))
				}
				if err := e.Fit(); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					model0 = cap(e.model)
				}
			}
		})
		if allocs != float64(c.want) || model0 != c.model0 || cap(e.model) > 30 {
			t.Fatalf("fits at %v: %v objects (want %d, the ring and one per growth), first model %d (want %d), last %d",
				c.fits, allocs, c.want, model0, c.model0, cap(e.model))
		}
	}
}

// TestFirstFitAllocatesOnlyTheModel: up to maxDirectTable samples the
// window, the spectrum, the inverse and the amplitudes live on the stack,
// so a first fit at any such window (ring filled, plan cached) makes one
// object, the model.
func TestFirstFitAllocatesOnlyTheModel(t *testing.T) {
	for w := 4; w <= maxDirectTable; w++ {
		planFor(w)
		filled := Estimator{ThreshFrac: 0.5, Window: w}
		for i := 0; i < w; i++ {
			filled.Observe(float64(i % 7))
		}
		if allocs := testing.AllocsPerRun(5, func() {
			e := filled // shares the ring; the model starts nil
			if err := e.Fit(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 1 {
			t.Fatalf("window %d: a first fit allocates %v objects, want 1 (the model)", w, allocs)
		}
	}
}

// TestRefitMatchesSeedEstimator is the oracle for the refit: the
// real-input forward, the one-pass threshold and the inverse over the kept
// bins must give the seed estimator's model and predictions to the bit at
// every window from 4 to past maxDirectTable, every threshold fraction,
// and windows whose transforms overflow (+Inf samples, ~1e300) or
// underflow (subnormals) into signed zeros, infinities and NaNs; and the
// one-pass Threshold must zero what the seed's two passes zeroed.
func TestRefitMatchesSeedEstimator(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kinds := []struct {
		name   string
		sample func(i int) float64
	}{
		{"sine", func(i int) float64 { return 100 + 40*math.Sin(2*math.Pi*float64(i)/7) + 5*rng.NormFloat64() }},
		{"zeros", func(int) float64 { return 0 }},
		{"constant", func(int) float64 { return 42.5 }},
		{"inf", func(i int) float64 {
			if i%11 == 3 {
				return math.Inf(1)
			}
			return 50 + rng.Float64()
		}},
		{"huge", func(int) float64 { return 1e300 * (1 + rng.Float64()) }},
		{"subnormal", func(int) float64 { return math.SmallestNonzeroFloat64 * float64(rng.Intn(1000)) }},
	}
	for w := 4; w <= maxDirectTable+7; w++ {
		for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
			for _, k := range kinds {
				e := &Estimator{ThreshFrac: frac, Window: w}
				ref := &seedEstimator{ThreshFrac: frac, Window: w}
				for i := 0; i < w+3; i++ { // the ring has wrapped
					v := k.sample(i)
					e.Observe(v)
					ref.Observe(v)
				}
				if err := e.Fit(); err != nil {
					t.Fatal(err)
				}
				if err := ref.Fit(); err != nil {
					t.Fatal(err)
				}
				for i, want := range ref.model {
					if !sameBitsF(e.model[i], want) {
						t.Fatalf("%s window=%d frac=%v model[%d]: got %v want %v (bits differ)",
							k.name, w, frac, i, e.model[i], want)
					}
				}
				for step := -w; step < 3*w; step += 5 {
					if !sameBitsF(e.Predict(step), ref.Predict(step)) {
						t.Fatalf("%s window=%d frac=%v Predict(%d) differs", k.name, w, frac, step)
					}
				}
			}
		}
	}
	// Threshold alone, on spectra no real window gives: a NaN amplitude
	// beside finite ones is never the maximum, and is never zeroed.
	odd := []complex128{0, complex(math.NaN(), 0), complex(math.Inf(-1), math.NaN()), complex(0, math.Copysign(0, -1))}
	for n := 2; n < 40; n++ {
		for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
			got := make([]complex128, n)
			for i := range got {
				got[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				if rng.Intn(6) == 0 {
					got[i] = odd[rng.Intn(len(odd))]
				}
			}
			want := append([]complex128(nil), got...)
			seedThreshold(want, frac)
			Threshold(got, frac)
			for i := range want {
				if !sameBitsC(got[i], want[i]) {
					t.Fatalf("n=%d frac=%v: Threshold bin %d is %v, the seed's %v", n, frac, i, got[i], want[i])
				}
			}
		}
	}
}

// TestEstimatorMemoryBounded is the regression test for the unbounded
// samples growth: one million observed steps must neither grow the ring
// beyond the window nor allocate once warm.
func TestEstimatorMemoryBounded(t *testing.T) {
	est := NewEstimator()
	for i := 0; i < 64; i++ {
		est.Observe(float64(i % 50))
	}
	if err := est.Fit(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1_000_000; i++ {
			est.Observe(float64(i % 50))
		}
	})
	if allocs != 0 {
		t.Fatalf("1M observes allocated %.1f times, want 0 (unbounded growth?)", allocs)
	}
	if est.Samples() != 64+2_000_000 {
		t.Fatalf("absolute step count lost: Samples()=%d", est.Samples())
	}
	if len(est.ring) != 30 || cap(est.ring) != 30 {
		t.Fatalf("ring grew: len=%d cap=%d want 30", len(est.ring), cap(est.ring))
	}
	if err := est.Fit(); err != nil { // still fits fine after 2M steps
		t.Fatal(err)
	}
	if est.ModelLen() != 30 {
		t.Fatalf("model len %d want 30", est.ModelLen())
	}
}

func TestModelAtAppendModel(t *testing.T) {
	est := NewEstimator()
	for i := 0; i < 30; i++ {
		est.Observe(100 + 40*math.Sin(2*math.Pi*float64(i)/10))
	}
	if err := est.Fit(); err != nil {
		t.Fatal(err)
	}
	model := est.Model()
	if est.ModelLen() != len(model) {
		t.Fatalf("ModelLen %d != len(Model()) %d", est.ModelLen(), len(model))
	}
	for i, v := range model {
		if !sameBitsF(est.ModelAt(i), v) {
			t.Fatalf("ModelAt(%d) mismatch", i)
		}
	}
	buf := make([]float64, 0, 64)
	buf = est.AppendModel(buf[:0])
	if len(buf) != len(model) {
		t.Fatalf("AppendModel len %d want %d", len(buf), len(model))
	}
	for i := range buf {
		if !sameBitsF(buf[i], model[i]) {
			t.Fatalf("AppendModel[%d] mismatch", i)
		}
	}
}
