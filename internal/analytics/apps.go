package analytics

import (
	"tango/internal/synth"
	"tango/internal/tensor"
)

// App bundles one of the paper's three applications: its synthetic data
// generator and its outcome-error measure (relative error of the analysis
// outcome, as plotted in Figs 2 and 10).
type App struct {
	Name string
	// Generate produces the n×n analysis field for a seed.
	Generate func(n int, seed int64) *tensor.Tensor
	// OutcomeErr runs the analysis on both fields and returns the
	// relative error of the reconstruction's outcome vs the reference's.
	OutcomeErr func(ref, rec *tensor.Tensor) float64
}

// XGCApp is blob detection over the dpot-like potential field.
func XGCApp() App {
	return App{
		Name: "XGC",
		Generate: func(n int, seed int64) *tensor.Tensor {
			t, _ := synth.XGC(synth.DefaultXGC(n, seed))
			return t
		},
		OutcomeErr: outcomeErr(func(ref, rec *tensor.Tensor) float64 {
			o := DefaultBlobOptions()
			return DetectBlobs(rec, o).RelErrVs(DetectBlobs(ref, o))
		}),
	}
}

// GenASiSApp is 2D rendering of the core-collapse velocity magnitude.
func GenASiSApp() App {
	return App{
		Name:     "GenASiS",
		Generate: synth.GenASiS,
		OutcomeErr: outcomeErr(func(ref, rec *tensor.Tensor) float64 {
			return CompareRenders(ref, rec).RelErr()
		}),
	}
}

// CFDApp is the high-pressure area/force analysis. The reconstruction is
// judged against the reference run's physical threshold.
func CFDApp() App {
	return App{
		Name:     "CFD",
		Generate: synth.CFD,
		OutcomeErr: outcomeErr(func(ref, rec *tensor.Tensor) float64 {
			refStats := AnalyzePressure(ref, DefaultPressureOptions())
			recStats := AnalyzePressureAt(rec, refStats.Threshold)
			return recStats.RelErrVs(refStats)
		}),
	}
}

// outcomeErr makes an analysis an OutcomeErr that rejects a
// reconstruction of another shape before analysing either field.
func outcomeErr(f func(ref, rec *tensor.Tensor) float64) func(ref, rec *tensor.Tensor) float64 {
	return func(ref, rec *tensor.Tensor) float64 {
		if !ref.SameShape(rec) {
			panic("analytics: OutcomeErr shape mismatch")
		}
		return f(ref, rec)
	}
}

// Apps returns the three applications in the paper's order.
func Apps() []App {
	return []App{XGCApp(), GenASiSApp(), CFDApp()}
}
