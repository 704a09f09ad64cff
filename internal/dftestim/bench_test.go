package dftestim

import (
	"math"
	"testing"
)

// benchEstimatorFit measures the steady-state Observe+Fit+Predict cycle at
// a given window length: 0 allocs/op up to maxDirectTable samples, whose
// scratch is on Fit's stack; a longer window allocates its scratch per fit.
func benchEstimatorFit(b *testing.B, window int) {
	est := &Estimator{ThreshFrac: 0.5, Window: window}
	for i := 0; i < window; i++ {
		est.Observe(100 + 40*math.Sin(2*math.Pi*float64(i)/10))
	}
	if err := est.Fit(); err != nil {
		b.Fatal(err)
	}
	step := window
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Observe(100 + 40*math.Sin(2*math.Pi*float64(step)/10))
		step++
		if err := est.Fit(); err != nil {
			b.Fatal(err)
		}
		_ = est.PredictNext()
	}
}

func BenchmarkEstimatorFit30(b *testing.B)   { benchEstimatorFit(b, 30) }
func BenchmarkEstimatorFit1024(b *testing.B) { benchEstimatorFit(b, 1024) }

// BenchmarkFFTIterative1024 measures the table-driven radix-2 kernel alone
// (no output allocation), the quantity the shared plan cache amortizes.
func BenchmarkFFTIterative1024(b *testing.B) {
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(math.Sin(float64(i)/7), 0)
	}
	out := make([]complex128, 1024)
	p := planFor(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.fft(out, x, false)
	}
}
