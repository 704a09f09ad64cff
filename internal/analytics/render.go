package analytics

import (
	"fmt"
	"math"

	"tango/internal/errmetric"
	"tango/internal/par"
	"tango/internal/tensor"
)

// Render performs the GenASiS analysis: a simple 2D rendering of the
// velocity magnitude — normalize to [0,1] with a fixed gamma, which is
// what a grayscale colormap application does before display.
func Render(t *tensor.Tensor) []float64 {
	dims := t.Dims()
	if len(dims) != 2 {
		panic(fmt.Sprintf("analytics: Render expects 2D, got %v", dims))
	}
	min, max := t.MinMax()
	scale := max - min
	if scale == 0 {
		scale = 1
	}
	data, out := t.Data(), make([]float64, t.Len())
	par.For(len(out), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x := (data[i] - min) / scale
			out[i] = math.Sqrt(x) // gamma 0.5 brightens the dim exterior
		}
	})
	return out
}

// RenderQuality compares the rendering of a reconstruction against the
// full-data rendering with the two measures the paper reports for
// GenASiS: SSIM of the images and Dice's coefficient of the bright-region
// masks (here, pixels above 60% intensity — the shock interior).
type RenderQuality struct {
	SSIM float64
	Dice float64
}

// CompareRenders renders both fields and scores the reconstruction.
func CompareRenders(ref, rec *tensor.Tensor) RenderQuality {
	dims := ref.Dims()
	if len(dims) != 2 || !ref.SameShape(rec) {
		panic("analytics: CompareRenders shape mismatch")
	}
	ri := Render(ref)
	xi := Render(rec)
	const brightCut = 0.6
	return RenderQuality{
		SSIM: errmetric.SSIM(ri, xi, dims[0], dims[1]),
		Dice: errmetric.DiceAt(ri, xi, brightCut),
	}
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
