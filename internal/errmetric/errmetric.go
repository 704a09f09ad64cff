// Package errmetric implements the error metrics the paper uses to
// characterize and control the fidelity of reduced representations:
// RMSE, NRMSE and PSNR (§III-B1) for error control, plus SSIM over two
// images read row by row for the GenASiS rendering analysis (§IV-A) and
// relative error for scalar analysis outcomes.
package errmetric

import (
	"fmt"
	"math"

	"tango/internal/par"
)

// Kind selects which error metric governs error control.
type Kind int

const (
	// NRMSE is root-mean-square error normalized by the data range;
	// smaller is more accurate.
	NRMSE Kind = iota
	// PSNR is peak signal-to-noise ratio in dB; larger is more accurate.
	PSNR
)

// String returns the metric name.
func (k Kind) String() string {
	switch k {
	case NRMSE:
		return "NRMSE"
	case PSNR:
		return "PSNR"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Better reports whether accuracy a is strictly better than b under k.
func (k Kind) Better(a, b float64) bool {
	if k == PSNR {
		return a > b
	}
	return a < b
}

// Satisfies reports whether achieved accuracy meets bound under k
// (achieved at least as accurate as the bound).
func (k Kind) Satisfies(achieved, bound float64) bool {
	if k == PSNR {
		return achieved >= bound
	}
	return achieved <= bound
}

// MSE returns the mean squared error between x and xhat. The slices must
// have equal nonzero length.
func MSE(x, xhat []float64) float64 {
	if len(x) != len(xhat) {
		panic(fmt.Sprintf("errmetric: length mismatch %d vs %d", len(x), len(xhat)))
	}
	if len(x) == 0 {
		panic("errmetric: empty input")
	}
	var sum float64
	for i := range x {
		d := x[i] - xhat[i]
		sum += float64(d * d)
	}
	return sum / float64(len(x))
}

// RMSE returns the root mean squared error.
func RMSE(x, xhat []float64) float64 { return math.Sqrt(MSE(x, xhat)) }

// Stats holds single-pass statistics of a reference field, precomputed
// once so hot loops that measure many reconstructions against the same
// reference (the refactor ladder sweep, per-ratio accuracy tables) stop
// re-scanning it for Range/peak on every call. All derived values are
// bit-identical to what the free functions compute: min/max/peak are
// order-independent and the formulas are shared.
type Stats struct {
	Min, Max float64 // data range endpoints (Range() = Max − Min)
	Peak     float64 // max |v|, PSNR's reference peak
	N        int
}

// NewStats folds x once (extremes). It panics on empty input, as MSE does.
func NewStats(x []float64) Stats {
	if len(x) == 0 {
		panic("errmetric: empty input")
	}
	return extremes(x)
}

// extremes folds x's min, max and peak per chunk on par. None is rounded,
// a NaN never wins a comparison, and folding the chunks in order keeps
// the first of equal extremes (of ±0, whichever comes first), so each has
// the bits of one serial scan. No x gives Min +Inf and Max −Inf.
func extremes(x []float64) Stats {
	none := Stats{Min: math.Inf(1), Max: math.Inf(-1), N: len(x)}
	if len(x) == 0 {
		return none
	}
	return par.MapReduce(len(x), func(lo, hi int) Stats {
		s := none
		for _, v := range x[lo:hi] {
			s = s.widen(v, v, math.Abs(v))
		}
		return s
	}, func(a, b Stats) Stats { return a.widen(b.Min, b.Max, b.Peak) })
}

// widen returns s taking in a low, a high and a peak value.
func (s Stats) widen(lo, hi, peak float64) Stats {
	if lo < s.Min {
		s.Min = lo
	}
	if hi > s.Max {
		s.Max = hi
	}
	if peak > s.Peak {
		s.Peak = peak
	}
	return s
}

// Range returns max(x) − min(x), as the free Range computes it.
func (s Stats) Range() float64 { return s.Max - s.Min }

// NRMSE returns RMSE normalized by the range of the reference x:
//
//	NRMSE = sqrt(mean((x-x̂)²)) / (x_max - x_min)
//
// A constant signal (zero range) with any mismatch yields +Inf; a perfect
// reconstruction yields 0 even at zero range.
func (s Stats) NRMSE(x, xhat []float64) float64 {
	return s.nrmseFromRMSE(RMSE(x, xhat))
}

func (s Stats) nrmseFromRMSE(rmse float64) float64 {
	r := s.Range()
	if r == 0 {
		if rmse == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return rmse / r
}

// PSNR returns the peak signal-to-noise ratio in dB:
//
//	PSNR = 10·log10(x_max² / mean((x-x̂)²))
//
// following the paper's formula, with x_max taken as the peak magnitude of
// the reference x. A perfect reconstruction yields +Inf.
func (s Stats) PSNR(x, xhat []float64) float64 {
	return s.psnrFromMSE(MSE(x, xhat))
}

func (s Stats) psnrFromMSE(mse float64) float64 {
	if mse == 0 {
		return math.Inf(1)
	}
	if s.Peak == 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(s.Peak*s.Peak/mse)
}

// Measure computes the accuracy of xhat against the reference x the
// stats were built from, under k.
func (s Stats) Measure(k Kind, x, xhat []float64) float64 {
	if k == PSNR {
		return s.PSNR(x, xhat)
	}
	return s.NRMSE(x, xhat)
}

// SSEBudget returns the largest sum of squared errors over N points that
// still satisfies bound under k (the metric's formula inverted at the
// bound), so a running SSE can be checked with one comparison instead of a
// sqrt or log10 per probe. Degenerate references (zero range, zero peak) get a
// zero budget: only an exact reconstruction satisfies.
func (s Stats) SSEBudget(k Kind, bound float64) float64 {
	if k == PSNR {
		if s.Peak == 0 {
			return 0
		}
		return s.Peak * s.Peak * float64(s.N) * math.Pow(10, -bound/10)
	}
	r := s.Range()
	if r == 0 {
		return 0
	}
	t := bound * r
	return t * t * float64(s.N)
}

// Measure computes the accuracy of xhat against x under k.
func Measure(k Kind, x, xhat []float64) float64 { return NewStats(x).Measure(k, x, xhat) }

// RelErr returns |got-want| / |want|. A zero reference with a nonzero
// value yields +Inf; 0/0 is 0.
func RelErr(want, got float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}
