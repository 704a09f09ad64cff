// Package weightfn implements the paper's storage-layer weight function
// (§III-C step 3): the blkio weight applied while retrieving the
// augmentation bucket Aug_{ε_m} is
//
//	w = k2 · |Aug_{ε_m}|·p / |lg ε_m| + b2   (NRMSE error control)
//	w = k2 · |Aug_{ε_m}|·p / |ε_m|     + b2   (PSNR error control)
//
// so that weight grows with the bucket's cardinality and the application's
// priority, and shrinks as the bucket's accuracy level tightens (lower
// accuracy data is more urgent — it carries the critical structure and
// gates interactive analysis). k2 and b2 are calibrated so the extreme
// corner cases map onto the container weight range [100, 1000].
package weightfn

import (
	"fmt"
	"math"

	"tango/internal/blkio"
	"tango/internal/errmetric"
)

// Priorities used in the paper's evaluation (§IV-A).
const (
	PriorityLow    = 1.0
	PriorityMedium = 5.0
	PriorityHigh   = 10.0
)

// Func is a calibrated weight function.
type Func struct {
	metric errmetric.Kind
	k2, b2 float64

	// Ablation switches (Fig 13): when false the corresponding term is
	// replaced by its calibration midpoint so it stops influencing the
	// weight.
	usePriority bool
	useAccuracy bool

	// calibration record
	tightest float64
}

// Calibration describes the extreme corners used to solve for k2 and b2:
// the (largest cardinality, lowest accuracy, highest priority) corner maps
// to blkio.MaxWeight and the (smallest cardinality, highest accuracy,
// lowest priority) corner to blkio.MinWeight (§III-C step 3).
type Calibration struct {
	Metric errmetric.Kind

	MaxCardinality float64 // largest bucket size (entries)
	MinCardinality float64 // smallest bucket size (> 0)

	LoosestBound  float64 // lowest accuracy ε_1
	TightestBound float64 // highest accuracy ε_b

	MaxPriority float64
	MinPriority float64
}

// accuracyTerm maps a bound to the denominator of the weight formula.
func accuracyTerm(metric errmetric.Kind, bound float64) float64 {
	var t float64
	if metric == errmetric.NRMSE {
		t = math.Abs(math.Log2(bound))
	} else {
		t = math.Abs(bound)
	}
	if t < 1e-9 {
		t = 1e-9 // guard ε=1 (lg=0) or ε=0 dB
	}
	return t
}

// New calibrates a weight function from the corner conditions.
func New(c Calibration) (*Func, error) {
	if c.MinCardinality <= 0 || c.MaxCardinality < c.MinCardinality {
		return nil, fmt.Errorf("weightfn: bad cardinality range [%v, %v]", c.MinCardinality, c.MaxCardinality)
	}
	if c.MinPriority <= 0 || c.MaxPriority < c.MinPriority {
		return nil, fmt.Errorf("weightfn: bad priority range [%v, %v]", c.MinPriority, c.MaxPriority)
	}
	if !c.Metric.Better(c.TightestBound, c.LoosestBound) && c.TightestBound != c.LoosestBound {
		return nil, fmt.Errorf("weightfn: tightest bound %v is looser than %v", c.TightestBound, c.LoosestBound)
	}
	// score = |Aug|·p / accuracyTerm(ε). The loosest bound gives the
	// SMALLEST accuracy term for NRMSE near 1? No: for NRMSE, looser
	// bound (larger ε) gives smaller |lg ε|, hence a larger score —
	// matching the paper's intent that low-accuracy buckets get high
	// weight. For PSNR, looser bound (smaller dB) gives a smaller
	// denominator, again a larger score.
	maxScore := c.MaxCardinality * c.MaxPriority / accuracyTerm(c.Metric, c.LoosestBound)
	minScore := c.MinCardinality * c.MinPriority / accuracyTerm(c.Metric, c.TightestBound)
	if maxScore <= minScore {
		// Degenerate calibration (single bound, single priority, equal
		// cardinalities): fall back to a flat mid-range function.
		return &Func{
			metric: c.Metric, k2: 0, b2: (blkio.MinWeight + blkio.MaxWeight) / 2,
			usePriority: true, useAccuracy: true,
			tightest: c.TightestBound,
		}, nil
	}
	k2 := float64(blkio.MaxWeight-blkio.MinWeight) / (maxScore - minScore)
	b2 := blkio.MinWeight - float64(k2*minScore)
	return &Func{
		metric: c.Metric, k2: k2, b2: b2,
		usePriority: true, useAccuracy: true,
		tightest: c.TightestBound,
	}, nil
}

// DisablePriority makes the function ignore the priority term (Fig 13
// ablation: "cardinality only" / "cardinality+accuracy").
func (f *Func) DisablePriority() { f.usePriority = false }

// DisableAccuracy makes the function ignore the accuracy term (Fig 13
// ablation: "cardinality+priority").
func (f *Func) DisableAccuracy() { f.useAccuracy = false }

// Weight returns the blkio weight for retrieving a bucket of the given
// cardinality at accuracy level bound with application priority p,
// clamped to the valid blkio range.
func (f *Func) Weight(cardinality float64, bound float64, priority float64) int {
	if cardinality < 0 {
		cardinality = 0
	}
	p := priority
	if !f.usePriority {
		p = 1
	}
	score := cardinality * p
	if f.useAccuracy {
		score /= accuracyTerm(f.metric, bound)
	} else {
		score /= accuracyTerm(f.metric, f.referenceBound())
	}
	w := float64(f.k2*score) + f.b2
	return blkio.ClampWeight(int(math.Round(w)))
}

// referenceBound is the accuracy value substituted when the accuracy term
// is disabled: the tightest calibrated bound. Disabling the term then
// prices every bucket as if it were the highest-accuracy one (the largest
// denominator), which is exactly what the Fig 13 ablation contrasts: the
// full function boosts low-accuracy buckets above that floor.
func (f *Func) referenceBound() float64 { return f.tightest }
