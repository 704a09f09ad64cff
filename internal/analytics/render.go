package analytics

import (
	"cmp"
	"math"

	"tango/internal/errmetric"
	"tango/internal/par"
	"tango/internal/tensor"
)

// RenderQuality compares the rendering of a reconstruction against the
// full-data rendering with the two measures the paper reports for
// GenASiS: SSIM of the images and Dice's coefficient of the bright-region
// masks (here, pixels above 60% intensity — the shock interior).
type RenderQuality struct {
	SSIM float64
	Dice float64
}

// shade is the GenASiS analysis, a simple 2D rendering of the velocity
// magnitude: normalize to [0,1] by the field's range with gamma 0.5, which
// brightens the dim exterior, as a grayscale colormap does before display.
type shade struct{ min, scale float64 }

func shadeOf(x []float64) shade {
	s := errmetric.NewStats(x)
	return shade{s.Min, cmp.Or(s.Range(), 1)}
}

func (g shade) at(v float64) float64 { return math.Sqrt((v - g.min) / g.scale) }

// tally is Dice's two areas and their intersection.
type tally struct{ inter, na, nb int }

// CompareRenders renders both fields and scores the reconstruction. It
// builds no image: one pass renders each pixel pair to count the masks,
// and SSIM renders the rows its windows cover. A render that is not all
// NaN lies on [+0, 1] with its minimum +0, so SSIM reads it as it is.
func CompareRenders(ref, rec *tensor.Tensor) RenderQuality {
	dims := ref.Dims()
	if len(dims) != 2 || !ref.SameShape(rec) {
		panic("analytics: CompareRenders shape mismatch")
	}
	const brightCut = 0.6
	x, y := ref.Data(), rec.Data()
	gx, gy := shadeOf(x), shadeOf(y)
	k := par.MapReduce(len(x), func(lo, hi int) tally {
		var k tally
		y := y[lo:hi]
		for i, v := range x[lo:hi] {
			a, b := gx.at(v) >= brightCut, gy.at(y[i]) >= brightCut
			if a {
				k.na++
				if b {
					k.inter++
				}
			}
			if b {
				k.nb++
			}
		}
		return k
	}, func(a, b tally) tally { return tally{a.inter + b.inter, a.na + b.na, a.nb + b.nb} })
	q := RenderQuality{Dice: 1}
	if k.na+k.nb != 0 {
		q.Dice = 2 * float64(k.inter) / float64(k.na+k.nb)
	}
	rows := func(f []float64, g shade) func(int, []float64) {
		return func(r int, dst []float64) {
			for c, v := range f[r*dims[1] : (r+1)*dims[1]] {
				dst[c] = g.at(v)
			}
		}
	}
	q.SSIM = errmetric.SSIM(dims[0], dims[1], rows(x, gx), rows(y, gy))
	return q
}

// RelErr converts the quality pair into a single relative-error style
// number in [0,1]: 1 − mean(SSIM, Dice), used when the paper plots
// "relative error of the analysis outcome" for GenASiS next to the other
// applications.
func (q RenderQuality) RelErr() float64 {
	m := (q.SSIM + q.Dice) / 2
	if m > 1 {
		m = 1
	}
	if m < 0 {
		m = 0
	}
	return 1 - m
}
