package errmetric

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tango/internal/par"
)

// ssimSerial is SSIM as it stood before it went onto par — one raster
// loop over the windows, two normalised copies per call — kept verbatim
// as the oracle.
func ssimSerial(ref, img []float64, rows, cols int) float64 {
	if rows <= 0 || cols <= 0 || rows*cols != len(ref) || len(ref) != len(img) {
		panic(fmt.Sprintf("errmetric: SSIM shape mismatch rows=%d cols=%d len=%d/%d",
			rows, cols, len(ref), len(img)))
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range ref {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	scale := max - min
	if scale == 0 {
		scale = 1
	}
	norm := func(src []float64) []float64 {
		out := make([]float64, len(src))
		for i, v := range src {
			out[i] = (v - min) / scale
		}
		return out
	}
	a, b := norm(ref), norm(img)

	const (
		win = 8
		c1  = 0.01 * 0.01
		c2  = 0.03 * 0.03
	)
	stepR, stepC := win/2, win/2
	var total float64
	var windows int
	for r0 := 0; r0 < rows; r0 += stepR {
		r1 := r0 + win
		if r1 > rows {
			r1 = rows
		}
		if r1-r0 < 2 {
			continue
		}
		for c0 := 0; c0 < cols; c0 += stepC {
			c1e := c0 + win
			if c1e > cols {
				c1e = cols
			}
			if c1e-c0 < 2 {
				continue
			}
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
			ssim := ((2*ma*mb + c1) * (2*cov + c2)) /
				((ma*ma + mb*mb + c1) * (va + vb + c2))
			total += ssim
			windows++
		}
	}
	if windows == 0 {
		panic("errmetric: SSIM image too small for any window")
	}
	return total / float64(windows)
}

// Dice and ThresholdMask are the mask-building Dice that DiceAt replaced,
// as they stood before they went onto par: DiceAt's oracle.
func Dice(a, b []bool) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("errmetric: Dice length mismatch %d vs %d", len(a), len(b)))
	}
	var inter, na, nb int
	for i := range a {
		if a[i] {
			na++
		}
		if b[i] {
			nb++
		}
		if a[i] && b[i] {
			inter++
		}
	}
	if na+nb == 0 {
		return 1
	}
	return 2 * float64(inter) / float64(na+nb)
}

// ThresholdMask returns the mask x >= thresh.
func ThresholdMask(x []float64, thresh float64) []bool {
	m := make([]bool, len(x))
	for i, v := range x {
		m[i] = v >= thresh
	}
	return m
}

// renderLike maps a field onto [0,1] the way analytics.Render does, so
// its minimum is +0 and its maximum exactly 1: SSIM's identity
// normalisation.
func renderLike(x []float64) []float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range x {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = math.Sqrt((v - lo) / (hi - lo))
	}
	return out
}

// ssimSlices is SSIM over two row-major images as it stood before SSIM
// read rows: the pixels normalised by the reference's range, read as they
// are when that range is [+0, 1].
func ssimSlices(ref, img []float64, rows, cols int) float64 {
	if rows*cols != len(ref) || len(ref) != len(img) {
		panic(fmt.Sprintf("errmetric: SSIM shape mismatch rows=%d cols=%d len=%d/%d",
			rows, cols, len(ref), len(img)))
	}
	rng := NewStats(ref)
	scale := rng.Range()
	if scale == 0 {
		scale = 1
	}
	norm := math.Float64bits(rng.Min) != 0 || scale != 1
	rowsOf := func(x []float64) func(int, []float64) {
		return func(r int, dst []float64) {
			for c, v := range x[r*cols : (r+1)*cols] {
				if norm {
					v = (v - rng.Min) / scale
				}
				dst[c] = v
			}
		}
	}
	return SSIM(rows, cols, rowsOf(ref), rowsOf(img))
}

// DiceAt is Dice's coefficient 2|A∩B| / (|A|+|B|) of the masks a >= cut
// and b >= cut, counted in one pass without building them; two empty masks
// score 1. It counted GenASiS's renders before analytics.CompareRenders
// counted them in the pass that renders them.
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

// TestSSIMMatchesSerialWindowLoop compares SSIM, reading the rows of two
// images, with the serial raster loop over the images bit for bit at one
// and two workers: on images shorter than a window, on ones whose window
// grid is below par.Threshold and on ones whose grid (and pixel count)
// spans several chunks, one of them starting mid-row; with the rows
// normalised by the reference's range and read as they are.
func TestSSIMMatchesSerialWindowLoop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(8))
	for _, shape := range [][2]int{{2, 2}, {5, 40}, {9, 10}, {9, 13}, {32, 32}, {130, 257}, {700, 1030}, {1025, 1025}} {
		rows, cols := shape[0], shape[1]
		field := make([]float64, rows*cols)
		noisy := make([]float64, rows*cols)
		for i := range field {
			r, c := float64(i/cols), float64(i%cols)
			field[i] = 3*math.Sin(r/40)*math.Cos(c/25) + 0.2*rng.NormFloat64()
			noisy[i] = field[i] + 0.3*rng.NormFloat64()
		}
		if rows == 700 && par.Threshold%((cols-2)/4+1) == 0 {
			t.Fatal("no chunk of the 700x1030 window grid starts mid-row")
		}
		if rows == 1025 && (rows/4)*(cols/4) <= par.Threshold {
			t.Fatal("the window grid no longer spans several chunks")
		}
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			for _, in := range []struct {
				name     string
				ref, img []float64
			}{
				{"raw", field, noisy},
				{"rendered", renderLike(field), renderLike(noisy)},
			} {
				got, want := ssimSlices(in.ref, in.img, rows, cols), ssimSerial(in.ref, in.img, rows, cols)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%dx%d procs=%d %s: SSIM %v, serial %v", rows, cols, procs, in.name, got, want)
				}
				want = Dice(ThresholdMask(in.ref, 0.6), ThresholdMask(in.img, 0.6))
				if got := DiceAt(in.ref, in.img, 0.6); got != want {
					t.Fatalf("%dx%d procs=%d %s: DiceAt %v, masks %v", rows, cols, procs, in.name, got, want)
				}
			}
		}
	}
}

// TestSSIMIdentityNormalisationCopiesNothing: SSIM holds no image and
// makes no normalised copy of one. It allocates its window scores, one ring pair per chunk and its closure:
// the same three objects at 64×64 as at 256×256.
func TestSSIMIdentityNormalisationCopiesNothing(t *testing.T) {
	for _, n := range []int{64, 256} {
		img := func(r int, dst []float64) {
			for c := range dst {
				dst[c] = float64((r*n+c)%17) / 16
			}
		}
		if a := testing.AllocsPerRun(5, func() { SSIM(n, n, img, img) }); a > 3 {
			t.Fatalf("%dx%d: SSIM allocates %v objects, want at most 3", n, n, a)
		}
	}
}

// TestDiceAtMatchesMasks: DiceAt equals Dice of the two ThresholdMasks on
// random images, below par.Threshold and across several chunks, whose
// pixels include NaN (in no mask), ±Inf, ±0 and values exactly at the
// cut, at one and two workers.
func TestDiceAtMatchesMasks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(9))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	for _, n := range []int{1, 7, 1000, 3*par.Threshold + 17} {
		for _, cut := range []float64{0.6, 0, math.Inf(1)} {
			a, b := make([]float64, n), make([]float64, n)
			for _, img := range [][]float64{a, b} {
				for i := range img {
					switch r := rng.Intn(10); {
					case r == 0:
						img[i] = specials[rng.Intn(len(specials))]
					case r <= 2:
						img[i] = cut
					case r == 3:
						img[i] = math.Nextafter(cut, math.Inf(-1))
					default:
						img[i] = rng.Float64()
					}
				}
			}
			want := Dice(ThresholdMask(a, cut), ThresholdMask(b, cut))
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				if got := DiceAt(a, b, cut); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d cut=%v procs=%d: DiceAt %v, masks %v", n, cut, procs, got, want)
				}
			}
		}
	}
}
