// Package dftestim implements the paper's signal-processing based
// interference estimator (§III-C step 1, Algorithm 1 lines 2–5): measured
// per-step bandwidth is transformed with a DFT, frequency components with
// amplitude below a threshold (non-recurrent random noise) are discarded,
// and the inverse transform — extended periodically — predicts the
// available bandwidth at future analysis steps.
package dftestim

import (
	"fmt"
	"math/cmplx"
)

// FFTReal computes the discrete Fourier transform of the real series x:
//
//	X[k] = Σ_n x[n]·e^(−2πi·kn/N)
//
// For power-of-two lengths it runs an iterative radix-2 Cooley–Tukey FFT
// in O(N log N) over precomputed, process-shared twiddle tables; for other
// lengths it falls back to the O(N²) direct transform (table-driven up to
// length 128 — window sizes here are tens of samples). Output is
// bit-identical to the original per-call twiddle evaluation; see plan.go.
func FFTReal(x []float64) []complex128 {
	if len(x) == 0 {
		return nil
	}
	out := make([]complex128, len(x))
	planFor(len(x)).forwardReal(out, x)
	return out
}

// Threshold zeroes every component of spec whose amplitude is below
// frac × (maximum non-DC amplitude). The DC component (k=0, the mean
// bandwidth level) is always kept: thresholding targets recurring
// interference versus random noise, not the baseline. Conjugate symmetry
// is preserved because symmetric components have equal amplitudes. It
// returns the number of zeroed components. Each amplitude is taken once,
// into a stack array up to maxDirectTable components.
func Threshold(spec []complex128, frac float64) int {
	if frac < 0 || frac > 1 {
		panic(fmt.Sprintf("dftestim: threshold fraction %v out of [0,1]", frac))
	}
	var ampArr [maxDirectTable]float64
	amp := ampArr[:]
	if len(spec) > len(amp) {
		amp = make([]float64, len(spec))
	}
	var maxAmp float64
	for k := 1; k < len(spec); k++ {
		if amp[k] = cmplx.Abs(spec[k]); amp[k] > maxAmp { // a NaN amplitude is never the max
			maxAmp = amp[k]
		}
	}
	cut := frac * maxAmp
	zeroed := 0
	for k := 1; k < len(spec); k++ {
		if amp[k] < cut {
			spec[k] = 0
			zeroed++
		}
	}
	return zeroed
}
