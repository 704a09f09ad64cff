package dftestim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func complexAlmost(t *testing.T, got, want complex128, tol float64, msg string) {
	t.Helper()
	if cmplx.Abs(got-want) > tol {
		t.Fatalf("%s: got %v want %v", msg, got, want)
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all-ones.
	x := make([]complex128, 8)
	x[0] = 1
	X := FFT(x)
	for k, v := range X {
		complexAlmost(t, v, 1, 1e-12, "impulse")
		_ = k
	}
}

func TestFFTConstant(t *testing.T) {
	// FFT of a constant is N at DC, 0 elsewhere.
	x := make([]complex128, 16)
	for i := range x {
		x[i] = 3
	}
	X := FFT(x)
	complexAlmost(t, X[0], 48, 1e-9, "DC")
	for k := 1; k < len(X); k++ {
		complexAlmost(t, X[k], 0, 1e-9, "non-DC")
	}
}

func TestFFTSingleTone(t *testing.T) {
	// cos(2π·3n/N) puts N/2 at bins 3 and N-3.
	n := 32
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Cos(2*math.Pi*3*float64(i)/float64(n)), 0)
	}
	X := FFT(x)
	complexAlmost(t, X[3], complex(float64(n)/2, 0), 1e-9, "bin 3")
	complexAlmost(t, X[n-3], complex(float64(n)/2, 0), 1e-9, "bin N-3")
	for k := range X {
		if k != 3 && k != n-3 {
			complexAlmost(t, X[k], 0, 1e-9, "other bins")
		}
	}
}

func TestFFTRoundTripPow2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, 64)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	y := IFFT(FFT(x))
	for i := range x {
		complexAlmost(t, y[i], x[i], 1e-9, "round trip")
	}
}

func TestFFTRoundTripNonPow2(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{3, 7, 30, 45} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
		}
		y := IFFT(FFT(x))
		for i := range x {
			complexAlmost(t, y[i], x[i], 1e-8, "non-pow2 round trip")
		}
	}
}

func TestRadix2MatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := make([]complex128, 32)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	p := planFor(len(x))
	fast := make([]complex128, len(x))
	p.fft(fast, x, false)
	slow := make([]complex128, len(x))
	p.direct(slow, x, false) // pow-of-two plans carry no direct table: on-the-fly O(N²) path
	for i := range x {
		complexAlmost(t, fast[i], slow[i], 1e-8, "radix2 vs direct")
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16
		a := make([]complex128, n)
		b := make([]complex128, n)
		sum := make([]complex128, n)
		for i := 0; i < n; i++ {
			a[i] = complex(rng.NormFloat64(), 0)
			b[i] = complex(rng.NormFloat64(), 0)
			sum[i] = a[i] + b[i]
		}
		fa, fb, fs := FFT(a), FFT(b), FFT(sum)
		for i := 0; i < n; i++ {
			if cmplx.Abs(fs[i]-(fa[i]+fb[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	// Σ|x|² == (1/N)·Σ|X|²
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		x := make([]complex128, n)
		var tEnergy float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
			tEnergy += real(x[i]) * real(x[i])
		}
		X := FFT(x)
		var fEnergy float64
		for _, v := range X {
			fEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		fEnergy /= float64(n)
		return math.Abs(tEnergy-fEnergy) < 1e-7*(1+tEnergy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyFFT(t *testing.T) {
	if FFT(nil) != nil || IFFT(nil) != nil {
		t.Fatal("empty transform should be nil")
	}
}

func TestThresholdKeepsDCAndStrongTones(t *testing.T) {
	n := 32
	x := make([]float64, n)
	for i := range x {
		// 10 mean + strong tone at bin 2 + weak tone at bin 7
		x[i] = 10 + 4*math.Cos(2*math.Pi*2*float64(i)/float64(n)) +
			0.2*math.Cos(2*math.Pi*7*float64(i)/float64(n))
	}
	spec := FFTReal(x)
	zeroed := Threshold(spec, 0.5)
	if zeroed == 0 {
		t.Fatal("weak tone should be zeroed")
	}
	if spec[0] == 0 {
		t.Fatal("DC must be preserved")
	}
	if spec[2] == 0 || spec[n-2] == 0 {
		t.Fatal("strong tone must survive")
	}
	if spec[7] != 0 || spec[n-7] != 0 {
		t.Fatal("weak tone must be zeroed")
	}
	// Reconstruction should track the strong structure.
	rec := IFFT(spec)
	var maxErr float64
	for i := range x {
		clean := 10 + 4*math.Cos(2*math.Pi*2*float64(i)/float64(n))
		if d := math.Abs(real(rec[i]) - clean); d > maxErr {
			maxErr = d
		}
	}
	if maxErr > 1e-9 {
		t.Fatalf("denoised reconstruction error %v", maxErr)
	}
}

func TestThresholdFracBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Threshold([]complex128{1, 2}, 1.5)
}

func TestPlanForHitAllocatesNothing(t *testing.T) {
	want := planFor(24)
	if allocs := testing.AllocsPerRun(100, func() {
		if planFor(24) != want {
			t.Fatal("planFor(24) changed on a hit")
		}
	}); allocs != 0 {
		t.Fatalf("planFor hit allocates %.1f/op, want 0", allocs)
	}
}

// TestPlanForSharesOnePlanAtFirstUse: goroutines that miss together all
// return the plan that was published, never one that lost the race, and
// a length each asks for alone is not lost when another is published.
func TestPlanForSharesOnePlanAtFirstUse(t *testing.T) {
	plans.Store(nil) // first use of every length again
	const n = 97     // non-power-of-two: a direct table slow enough to overlap
	shared, own := make([]*plan, 8), make([]*plan, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range shared {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			shared[i] = planFor(n)
			own[i] = planFor(n + 1 + i)
		}()
	}
	close(start)
	wg.Wait()
	for i := range shared {
		if shared[i] != planFor(n) {
			t.Errorf("goroutine %d got a plan for %d that is not the cached one", i, n)
		}
		if own[i] != planFor(n+1+i) {
			t.Errorf("goroutine %d: the plan for %d was lost from the cache", i, n+1+i)
		}
	}
}
