package dftestim

// FFT is the complex forward transform FFTReal widens its input for.
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
