package errmetric

import (
	"fmt"

	"tango/internal/par"
)

// SSIM computes the mean structural similarity index between two 2D
// images of rows×cols pixels, following Wang et al. 2004 with an 8×8
// sliding window and the standard stabilizing constants for pixels on a
// [0,1] scale: dynamic range L = 1, C1 = (0.01)², C2 = (0.03)².
//
// The images are read a row at a time, concurrently and a row possibly
// more than once: ref(r, dst) and img(r, dst) write row r, on that scale,
// into dst (len cols). Each chunk of windows keeps the last eight rows
// of each image in a ring, row r in slot r%8, so SSIM holds no image.
//
// SSIM is 1 for identical images and decreases toward 0 (or below) as
// structure diverges; the paper uses it to judge GenASiS renderings of
// reduced data against full-data renderings.
func SSIM(rows, cols int, ref, img func(r int, dst []float64)) float64 {
	const (
		win  = 8
		step = win / 2
		c1   = 0.01 * 0.01
		c2   = 0.03 * 0.03
	)
	// Window origins run 0, step, 2·step, … while at least two rows (or
	// columns) remain under the window: ⌊(n − 2)/step⌋ + 1 of them.
	nc := (cols + step - 2) / step
	windows := (rows + step - 2) / step * nc
	if rows <= 0 || cols <= 0 || windows == 0 {
		panic(fmt.Sprintf("errmetric: SSIM image %dx%d too small for any window", rows, cols))
	}
	// Each window is scored on its own into its slot, in parallel; the
	// scores are summed serially in window order, as one raster loop does.
	vals := make([]float64, windows)
	par.For(windows, func(lo, hi int) {
		ring := make([]float64, 2*min(win, rows)*cols)
		ra, rb := ring[:len(ring)/2], ring[len(ring)/2:]
		next := lo / nc * step // rows before next are in the rings
		for k := lo; k < hi; k++ {
			r0, c0 := k/nc*step, k%nc*step
			r1 := min(r0+win, rows)
			c1e := min(c0+win, cols)
			for ; next < r1; next++ {
				s := next % win * cols
				ref(next, ra[s:s+cols])
				img(next, rb[s:s+cols])
			}
			n := float64((r1 - r0) * (c1e - c0))
			var sa, sb float64
			for r := r0; r < r1; r++ {
				s := r % win * cols
				a, b := ra[s+c0:s+c1e], rb[s+c0:s+c1e]
				b = b[:len(a)]
				for c, v := range a {
					sa += v
					sb += b[c]
				}
			}
			ma, mb := sa/n, sb/n
			var va, vb, cov float64
			for r := r0; r < r1; r++ {
				s := r % win * cols
				a, b := ra[s+c0:s+c1e], rb[s+c0:s+c1e]
				b = b[:len(a)]
				for c, v := range a {
					da := v - ma
					db := b[c] - mb
					va += float64(da * da)
					vb += float64(db * db)
					cov += float64(da * db)
				}
			}
			va /= n - 1
			vb /= n - 1
			cov /= n - 1
			vals[k] = ((float64(2*ma*mb) + c1) * (float64(2*cov) + c2)) /
				((float64(ma*ma) + float64(mb*mb) + c1) * (va + vb + c2))
		}
	})
	var total float64
	for _, v := range vals {
		total += v
	}
	return total / float64(windows)
}
