package dftestim

import "math/bits"

// fft is the complex transform the estimator's real forward and
// thresholded inverse specialise: radix-2 at a power of two, else direct.
func (p *plan) fft(dst, src []complex128, inverse bool) {
	if !p.pow2 {
		p.direct(dst, src, inverse)
		return
	}
	for i, v := range src {
		dst[bits.Reverse64(uint64(i))>>p.shift] = v
	}
	p.stages(dst, inverse)
}

// direct is the O(N²) complex transform with its twiddles evaluated on the
// fly.
func (p *plan) direct(dst, src []complex128, inverse bool) {
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := range dst {
		var sum complex128
		for j, v := range src {
			sum += mul(v, twiddle(sign, k, j, p.n))
		}
		dst[k] = sum
	}
}

// FFT is the complex forward transform of which FFTReal is the
// real-input case.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	planFor(n).fft(out, x, false)
	return out
}

// IFFT computes the inverse DFT with 1/N normalization, so
// IFFT(FFT(x)) == x up to rounding.
func IFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	planFor(n).fft(out, x, true)
	inv := complex(1/float64(n), 0)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// Model returns a copy of the fitted one-period reconstruction.
func (e *Estimator) Model() []float64 {
	out := make([]float64, len(e.model))
	copy(out, e.model)
	return out
}

// AppendModel appends the fitted model to dst and returns the extended
// slice.
func (e *Estimator) AppendModel(dst []float64) []float64 {
	return append(dst, e.model...)
}
