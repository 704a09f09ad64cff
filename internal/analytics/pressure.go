package analytics

import (
	"fmt"
	"math"

	"tango/internal/errmetric"
	"tango/internal/tensor"
)

// PressureStats is the CFD analysis outcome: the total area with high
// pressure near the front of the plane and the total force on that area
// (pressure integrated over the area), the two quantities the paper
// reports for CFD.
type PressureStats struct {
	HighArea   float64 // cells with p >= threshold
	TotalForce float64 // Σ p over those cells (unit cell area)
	Threshold  float64
}

// PressureOptions configures the analysis.
type PressureOptions struct {
	// SigmaK: the high-pressure threshold is mean + SigmaK·σ of the
	// analyzed field; 0 means 2.
	SigmaK float64
}

// DefaultPressureOptions uses mean + 2σ.
func DefaultPressureOptions() PressureOptions { return PressureOptions{SigmaK: 2} }

// AnalyzePressure computes the high-pressure area and force.
func AnalyzePressure(t *tensor.Tensor, o PressureOptions) PressureStats {
	mean, variance := meanVariance(t.Data())
	k := o.SigmaK
	if k == 0 {
		k = 2
	}
	return AnalyzePressureAt(t, mean+float64(k*math.Sqrt(variance)))
}

// AnalyzePressureAt computes area and force against a fixed threshold
// (use the reference run's threshold so reduced data is judged on the
// same physical criterion).
func AnalyzePressureAt(t *tensor.Tensor, thresh float64) PressureStats {
	if len(t.Dims()) != 2 {
		panic(fmt.Sprintf("analytics: pressure analysis expects 2D, got %v", t.Dims()))
	}
	st := PressureStats{Threshold: thresh}
	for _, v := range t.Data() {
		if v >= thresh {
			st.HighArea++
			st.TotalForce += v
		}
	}
	return st
}

// RelErrVs returns the relative error against a reference outcome,
// averaged over area and force.
func (p PressureStats) RelErrVs(ref PressureStats) float64 {
	return meanRelErr(errmetric.RelErr(ref.HighArea, p.HighArea),
		errmetric.RelErr(ref.TotalForce, p.TotalForce))
}
