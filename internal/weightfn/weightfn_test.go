package weightfn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tango/internal/blkio"
	"tango/internal/errmetric"
)

func calibNRMSE(t *testing.T) *Func {
	t.Helper()
	f, err := New(Calibration{
		Metric:         errmetric.NRMSE,
		MaxCardinality: 1e6,
		MinCardinality: 100,
		LoosestBound:   0.1,
		TightestBound:  1e-5,
		MaxPriority:    PriorityHigh,
		MinPriority:    PriorityLow,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCornersMapToWeightRange(t *testing.T) {
	f := calibNRMSE(t)
	max := f.Weight(1e6, 0.1, PriorityHigh)
	min := f.Weight(100, 1e-5, PriorityLow)
	if max != blkio.MaxWeight {
		t.Fatalf("max corner weight = %d, want %d", max, blkio.MaxWeight)
	}
	if min != blkio.MinWeight {
		t.Fatalf("min corner weight = %d, want %d", min, blkio.MinWeight)
	}
}

// Monotonicity axes checked by checkMonotone.
const (
	axisCardinality = iota
	axisBound
	axisPriority
)

// checkMonotone checks, over the whole calibrated domain of an NRMSE and a
// PSNR function, with each ablation on and off, that the weight never
// falls as the given axis grows (for the bound axis: as it loosens).
// Draws in [0,1] map onto each axis (bounds log-spaced for NRMSE), two on
// the checked axis with the rest of the point held fixed.
func checkMonotone(t *testing.T, axis int) {
	t.Helper()
	lerp := func(lo, hi float64, u uint16) float64 { return lo + float64(u)/math.MaxUint16*(hi-lo) }
	for _, cal := range []Calibration{
		{Metric: errmetric.NRMSE, MaxCardinality: 1e6, MinCardinality: 100, LoosestBound: 0.1, TightestBound: 1e-5,
			MaxPriority: PriorityHigh, MinPriority: PriorityLow},
		{Metric: errmetric.PSNR, MaxCardinality: 1e6, MinCardinality: 100, LoosestBound: 30, TightestBound: 80,
			MaxPriority: PriorityHigh, MinPriority: PriorityLow},
	} {
		// bound runs from the tightest (u = 0) to the loosest (u = max).
		bound := func(u uint16) float64 { return lerp(cal.TightestBound, cal.LoosestBound, u) }
		if cal.Metric == errmetric.NRMSE {
			bound = func(u uint16) float64 {
				return math.Exp(lerp(math.Log(cal.TightestBound), math.Log(cal.LoosestBound), u))
			}
		}
		for _, ablate := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			f, err := New(cal)
			if err != nil {
				t.Fatal(err)
			}
			if ablate[0] {
				f.DisablePriority()
			}
			if ablate[1] {
				f.DisableAccuracy()
			}
			// The weight at the lower draw must not exceed the one at
			// the higher.
			prop := func(c, b, p, lo, hi uint16) bool {
				lo, hi = min(lo, hi), max(lo, hi)
				at := func(c, b, p uint16) int {
					return f.Weight(lerp(cal.MinCardinality, cal.MaxCardinality, c), bound(b), lerp(cal.MinPriority, cal.MaxPriority, p))
				}
				switch axis {
				case axisCardinality:
					return at(lo, b, p) <= at(hi, b, p)
				case axisBound:
					return at(c, lo, p) <= at(c, hi, p)
				default:
					return at(c, b, lo) <= at(c, b, hi)
				}
			}
			qc := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(1))}
			if err := quick.Check(prop, qc); err != nil {
				t.Errorf("%v, priority ablated %t, accuracy ablated %t: %v", cal.Metric, ablate[0], ablate[1], err)
			}
		}
	}
}

func TestWeightMonotoneInCardinality(t *testing.T) {
	checkMonotone(t, axisCardinality)
	f := calibNRMSE(t)
	if !(f.Weight(1e6, 0.01, 5) >= f.Weight(1e4, 0.01, 5)) {
		t.Fatal("weight should grow with cardinality")
	}
	if !(f.Weight(1e4, 0.01, 5) >= f.Weight(100, 0.01, 5)) {
		t.Fatal("weight should grow with cardinality (low range)")
	}
}

func TestWeightMonotoneInPriority(t *testing.T) {
	checkMonotone(t, axisPriority)
	f := calibNRMSE(t)
	w1 := f.Weight(1e5, 0.01, PriorityLow)
	w5 := f.Weight(1e5, 0.01, PriorityMedium)
	w10 := f.Weight(1e5, 0.01, PriorityHigh)
	if !(w1 <= w5 && w5 <= w10) {
		t.Fatalf("priority not monotone: %d %d %d", w1, w5, w10)
	}
	if w1 == w10 {
		t.Fatalf("priority has no effect: %d %d %d", w1, w5, w10)
	}
}

func TestWeightFavorsLowAccuracy(t *testing.T) {
	checkMonotone(t, axisBound)
	// Paper Fig 15: as the retrieved accuracy tightens from 1e-2 to
	// 1e-4, the weight is lowered.
	f := calibNRMSE(t)
	loose := f.Weight(1e5, 1e-2, PriorityHigh)
	tight := f.Weight(1e5, 1e-4, PriorityHigh)
	if !(loose > tight) {
		t.Fatalf("loose %d should outweigh tight %d", loose, tight)
	}
}

func TestWeightClamped(t *testing.T) {
	f := calibNRMSE(t)
	if w := f.Weight(1e12, 0.5, 100); w != blkio.MaxWeight {
		t.Fatalf("overflow weight = %d", w)
	}
	if w := f.Weight(0, 1e-5, 0.001); w < blkio.MinWeight {
		t.Fatalf("underflow weight = %d", w)
	}
	if w := f.Weight(-5, 0.01, 5); w < blkio.MinWeight || w > blkio.MaxWeight {
		t.Fatalf("negative cardinality weight = %d", w)
	}
}

func TestPSNRForm(t *testing.T) {
	f, err := New(Calibration{
		Metric:         errmetric.PSNR,
		MaxCardinality: 1e6,
		MinCardinality: 100,
		LoosestBound:   30,
		TightestBound:  80,
		MaxPriority:    PriorityHigh,
		MinPriority:    PriorityLow,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Looser bound (30 dB) gets more weight than tighter (80 dB).
	if !(f.Weight(1e5, 30, 5) > f.Weight(1e5, 80, 5)) {
		t.Fatal("PSNR form should favor the low-accuracy bucket")
	}
	if f.Weight(1e6, 30, PriorityHigh) != blkio.MaxWeight {
		t.Fatal("PSNR max corner")
	}
}

func TestAblationOrderingFig13(t *testing.T) {
	// For the loosest bucket of a high-priority app, progressively
	// enabling priority then accuracy must not lower the weight —
	// that's the Fig 13 latency ordering.
	cardOnly := calibNRMSE(t)
	cardOnly.DisablePriority()
	cardOnly.DisableAccuracy()

	cardPrio := calibNRMSE(t)
	cardPrio.DisableAccuracy()

	full := calibNRMSE(t)

	card, bound, p := 2e5, 0.01, PriorityHigh
	w1 := cardOnly.Weight(card, bound, p)
	w2 := cardPrio.Weight(card, bound, p)
	w3 := full.Weight(card, bound, p)
	if !(w1 <= w2 && w2 <= w3) {
		t.Fatalf("ablation ordering violated: %d %d %d", w1, w2, w3)
	}
	if w1 == w3 {
		t.Fatalf("ablation indistinguishable: %d %d %d", w1, w2, w3)
	}
}

func TestCalibrationValidation(t *testing.T) {
	base := Calibration{
		Metric:         errmetric.NRMSE,
		MaxCardinality: 1e6, MinCardinality: 100,
		LoosestBound: 0.1, TightestBound: 1e-5,
		MaxPriority: 10, MinPriority: 1,
	}
	bad := base
	bad.MinCardinality = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero MinCardinality accepted")
	}
	bad = base
	bad.MinCardinality = 2e6
	if _, err := New(bad); err == nil {
		t.Fatal("inverted cardinality range accepted")
	}
	bad = base
	bad.MinPriority = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero priority accepted")
	}
	bad = base
	bad.LoosestBound, bad.TightestBound = 1e-5, 0.1
	if _, err := New(bad); err == nil {
		t.Fatal("inverted bounds accepted")
	}
}

func TestDegenerateCalibrationFallsBack(t *testing.T) {
	f, err := New(Calibration{
		Metric:         errmetric.NRMSE,
		MaxCardinality: 100, MinCardinality: 100,
		LoosestBound: 0.01, TightestBound: 0.01,
		MaxPriority: 5, MinPriority: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := f.Weight(100, 0.01, 5)
	if w < blkio.MinWeight || w > blkio.MaxWeight {
		t.Fatalf("degenerate weight = %d", w)
	}
}
