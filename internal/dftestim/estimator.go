package dftestim

import (
	"errors"
	"fmt"
	"math"
)

// errTooFewSamples is the static Fit error; Fit is a //tango:hotpath and
// may not build a formatted error per call.
var errTooFewSamples = errors.New("dftestim: need at least 4 samples")

// Estimator predicts per-step available bandwidth from a window of
// measured per-step bandwidths. It implements Algorithm 1 lines 2–5:
//
//	{FC_i}  ← DFT({BW_i})
//	F̃C_i   ← 0 if FC_i < thresh (relative to the max non-DC amplitude)
//	{B̃W_i} ← IDFT({F̃C_i})
//
// and extrapolates B̃W to future steps using the periodicity of the HPC
// workload pattern Σ_i I_i(C_i^x W_i)* F_i. Estimation is re-run
// periodically (the paper refits every 30 steps) so the model tracks
// workload changes.
//
// Memory is bounded: samples live in a ring sized to the window, the
// model and the shared twiddle tables are reused across refits and the
// spectrum lives on Fit's stack, so a long-running (tangod-length)
// session at a window of up to maxDirectTable samples neither grows nor
// allocates in steady state. Absolute step indexing is preserved —
// Samples(), Predict, and PredictNext see the same step numbers as the
// unbounded-history implementation they replaced.
type Estimator struct {
	// ThreshFrac is the amplitude threshold as a fraction of the maximum
	// non-DC amplitude (the paper evaluates 25%, 50%, 75%; default 50%).
	ThreshFrac float64
	// Window is the number of most recent samples fitted (default 30,
	// the paper's re-estimation period). Set it before the first Observe:
	// the ring holds only Window samples, so growing it mid-run fits the
	// retained suffix until enough new samples arrive.
	Window int

	ring  []float64 // sample ring; slot for step s is s % len(ring)
	count int       // total samples observed; the next sample's step index

	model  []float64 // denoised one-period reconstruction (reused)
	fitAt  int       // step index of the first sample in the fitted window
	fitted bool
}

// NewEstimator returns an estimator with the paper's defaults.
func NewEstimator() *Estimator {
	return &Estimator{ThreshFrac: 0.5, Window: 30}
}

func (e *Estimator) effWindow() int {
	if e.Window > 0 {
		return e.Window
	}
	return 30
}

// Observe records the measured bandwidth of the next step.
//
//tango:hotpath
func (e *Estimator) Observe(bw float64) {
	if math.IsNaN(bw) || bw < 0 {
		panic(fmt.Sprintf("dftestim: invalid bandwidth sample %v", bw))
	}
	w := e.effWindow()
	if len(e.ring) != w {
		e.resizeRing(w)
	}
	e.ring[e.count%w] = bw
	e.count++
}

// resizeRing rebuilds the ring at the new window size, preserving the most
// recent samples (up to the smaller of both capacities) at their absolute
// step slots.
func (e *Estimator) resizeRing(w int) {
	old := e.ring
	avail := min(e.count, len(old), w)
	ring := make([]float64, w)
	for i := 0; i < avail; i++ {
		step := e.count - avail + i
		ring[step%w] = old[step%len(old)]
	}
	e.ring = ring
}

// Samples returns the number of observed steps.
//
//tango:hotpath
func (e *Estimator) Samples() int { return e.count }

// Ready reports whether a model has been fitted.
func (e *Estimator) Ready() bool { return e.fitted }

// Fit builds the denoised periodic model from the most recent Window
// samples. It returns an error if fewer than 4 samples are available.
// Up to maxDirectTable samples the window and its spectrum live on the
// stack and the model is reused, so a steady refit allocates nothing.
//
//tango:hotpath
func (e *Estimator) Fit() error {
	if e.count < 4 {
		return errTooFewSamples
	}
	w := e.effWindow()
	if len(e.ring) != w {
		e.resizeRing(w)
	}
	w = min(w, e.count) // the ring holds w samples now
	p := planFor(w)
	// A growth at least doubles the model, up to the window (twice after a
	// session's first fit at 10); the first is sized to w, as a fleet node
	// fits once, short.
	if cap(e.model) < w {
		e.model = make([]float64, max(w, min(2*cap(e.model), e.effWindow())))
	}
	e.model = e.model[:w]
	start := e.count - w

	var winArr [maxDirectTable]float64
	var specArr, recArr [maxDirectTable]complex128
	win, spec, rec := winArr[:], specArr[:], recArr[:]
	if w > maxDirectTable {
		win, spec, rec = make([]float64, w), make([]complex128, w), make([]complex128, w)
	}
	win, spec, rec = win[:w], spec[:w], rec[:w]
	pos := start % len(e.ring)
	if n := copy(win, e.ring[pos:]); n < w {
		copy(win[n:], e.ring[:w-n])
	}
	p.forwardReal(spec, win)
	Threshold(spec, e.ThreshFrac)
	p.inverse(rec, spec)

	// Replicates the seed's IFFT normalization (out[i] *= inv as a complex
	// multiply) followed by the clamp loop, so models stay bit-identical.
	inv := complex(1/float64(w), 0)
	for i, v := range rec {
		bw := real(mul(v, inv))
		if bw < 0 {
			bw = 0 // bandwidth cannot be negative; clamp ringing
		}
		e.model[i] = bw
	}
	e.fitAt = start
	e.fitted = true
	return nil
}

// Predict returns B̃W for the given absolute step index, extrapolating the
// fitted window periodically. It panics if Fit has not succeeded.
//
//tango:hotpath
func (e *Estimator) Predict(step int) float64 {
	if !e.fitted {
		panic("dftestim: Predict before successful Fit")
	}
	n := len(e.model)
	idx := (step - e.fitAt) % n
	if idx < 0 {
		idx += n
	}
	return e.model[idx]
}

// PredictNext returns the prediction for the step after the last observed
// one.
//
//tango:hotpath
func (e *Estimator) PredictNext() float64 {
	return e.Predict(e.count)
}

// ModelLen returns the fitted model's period length (0 before Fit).
//
//tango:hotpath
func (e *Estimator) ModelLen() int { return len(e.model) }

// ModelAt returns the fitted model value at index i without copying. i
// must be in [0, ModelLen()).
//
//tango:hotpath
func (e *Estimator) ModelAt(i int) float64 { return e.model[i] }

// MeanAbsError reports the mean absolute prediction error of the fitted
// model against a slice of actual future bandwidths beginning at
// firstStep. It is used by the Fig 7 experiment to score estimation
// accuracy per threshold level.
func (e *Estimator) MeanAbsError(firstStep int, actual []float64) float64 {
	if len(actual) == 0 {
		return 0
	}
	var sum float64
	for i, a := range actual {
		sum += math.Abs(e.Predict(firstStep+i) - a)
	}
	return sum / float64(len(actual))
}
