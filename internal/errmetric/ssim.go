package errmetric

import (
	"fmt"
	"math"

	"tango/internal/par"
)

// SSIM computes the mean structural similarity index between two 2D
// images (row-major, rows×cols), following Wang et al. 2004 with an 8×8
// sliding window and the standard stabilizing constants. Pixel values are
// first normalized to [0,1] by the reference image's range, so dynamic
// range L = 1, C1 = (0.01)², C2 = (0.03)².
//
// SSIM is 1 for identical images and decreases toward 0 (or below) as
// structure diverges; the paper uses it to judge GenASiS renderings of
// reduced data against full-data renderings.
func SSIM(ref, img []float64, rows, cols int) float64 {
	if rows <= 0 || cols <= 0 || rows*cols != len(ref) || len(ref) != len(img) {
		panic(fmt.Sprintf("errmetric: SSIM shape mismatch rows=%d cols=%d len=%d/%d",
			rows, cols, len(ref), len(img)))
	}
	rng := extremes(ref)
	scale := rng.Range()
	if scale == 0 {
		scale = 1
	}
	// (v − (+0))/1 == v bit for bit, so that normalisation — the one
	// analytics.Render's [0,1] output always gets — reads the inputs in
	// place instead of copying them.
	a, b := ref, img
	if math.Float64bits(rng.Min) != 0 || scale != 1 {
		norm := func(src []float64) []float64 {
			out := make([]float64, len(src))
			for i, v := range src {
				out[i] = (v - rng.Min) / scale
			}
			return out
		}
		a, b = norm(ref), norm(img)
	}

	const (
		win = 8
		c1  = 0.01 * 0.01
		c2  = 0.03 * 0.03
	)
	stepR, stepC := win/2, win/2
	// Window origins run 0, step, 2·step, … while at least two rows (or
	// columns) remain under the window: a prefix of the origins.
	origins := func(n, step int) int {
		if n < 2 {
			return 0
		}
		return (n-2)/step + 1
	}
	nc := origins(cols, stepC)
	windows := origins(rows, stepR) * nc
	if windows == 0 {
		panic("errmetric: SSIM image too small for any window")
	}
	// Each window is scored on its own into its slot, in parallel; the
	// scores are summed serially in window order, as one raster loop does.
	vals := make([]float64, windows)
	par.For(windows, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			r0, c0 := k/nc*stepR, k%nc*stepC
			r1 := min(r0+win, rows)
			c1e := min(c0+win, cols)
			n := float64((r1 - r0) * (c1e - c0))
			var sa, sb float64
			for r := r0; r < r1; r++ {
				for c := c0; c < c1e; c++ {
					sa += a[r*cols+c]
					sb += b[r*cols+c]
				}
			}
			ma, mb := sa/n, sb/n
			var va, vb, cov float64
			for r := r0; r < r1; r++ {
				for c := c0; c < c1e; c++ {
					da := a[r*cols+c] - ma
					db := b[r*cols+c] - mb
					va += da * da
					vb += db * db
					cov += da * db
				}
			}
			va /= n - 1
			vb /= n - 1
			cov /= n - 1
			vals[k] = ((2*ma*mb + c1) * (2*cov + c2)) /
				((ma*ma + mb*mb + c1) * (va + vb + c2))
		}
	})
	var total float64
	for _, v := range vals {
		total += v
	}
	return total / float64(windows)
}

// DiceAt is Dice's coefficient 2|A∩B| / (|A|+|B|) of the masks a >= cut
// and b >= cut, counted in one pass without building them; two empty masks
// score 1. The paper uses Dice on thresholded renderings.
func DiceAt(a, b []float64, cut float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("errmetric: Dice length mismatch %d vs %d", len(a), len(b)))
	}
	type counts struct{ inter, na, nb int }
	k := par.MapReduce(len(a), func(lo, hi int) counts {
		var k counts
		for i := lo; i < hi; i++ {
			ina, inb := a[i] >= cut, b[i] >= cut
			if ina {
				k.na++
			}
			if inb {
				k.nb++
			}
			if ina && inb {
				k.inter++
			}
		}
		return k
	}, func(x, y counts) counts { return counts{x.inter + y.inter, x.na + y.na, x.nb + y.nb} })
	if k.na+k.nb == 0 {
		return 1
	}
	return 2 * float64(k.inter) / float64(k.na+k.nb)
}
