package dftestim

import (
	"maps"
	"math"
	"math/bits"
	"math/cmplx"
	"sync/atomic"
)

// maxDirectTable bounds the per-length memory of the precomputed O(N²)
// twiddle table for non-power-of-two transforms: n ≤ 128 costs at most
// 128²·16 B = 256 KiB per direction. Larger non-power-of-two lengths
// (rare: window sizes here are tens of samples) evaluate the twiddles on
// the fly, exactly as the transform always did.
const maxDirectTable = 128

// plan holds the precomputed twiddle tables for one transform length n.
// A plan is immutable after construction and shared process-wide through
// planFor, so a fleet of 100k estimators fitting the same window length
// pays for one table, not 100k.
//
// Byte-identity contract: every table entry is generated with the same
// float expressions — and, for the radix-2 stages, the same w *= wBase
// recurrence — that the transform previously evaluated inline per call.
// Each butterfly and each direct-sum term therefore sees bit-identical
// operands, and the transform output is bit-identical to the seed
// implementation (pinned by TestFFTMatchesSeedImplementation).
type plan struct {
	n     int
	pow2  bool
	shift uint // bit-reversal shift for the radix-2 permutation

	// Radix-2 stage twiddles, flattened stage-major (stage of size 2
	// contributes 1 entry, size 4 contributes 2, …; n−1 entries total).
	fwd, inv []complex128

	// Direct-transform tables for non-power-of-two n ≤ maxDirectTable:
	// dfwd[k*n+j] = e^(−2πi·kj/n), dinv its conjugate direction. nil for
	// larger lengths (on-the-fly fallback).
	dfwd, dinv []complex128
}

// plans is the process-wide plan cache, copied on write: readers load
// the map and never lock; a miss builds the plan, publishes a copy of
// the map with it added, and retries if another goroutine published
// first. The map is never written after it is published.
var plans atomic.Pointer[map[int]*plan]

// planFor returns the shared plan for length n, building it on first use;
// a hit is a load and a map lookup, and allocates nothing.
func planFor(n int) *plan {
	var built *plan
	for {
		cur := plans.Load()
		if cur != nil {
			if p := (*cur)[n]; p != nil {
				return p
			}
		}
		if built == nil {
			built = newPlan(n)
		}
		next := make(map[int]*plan, 16)
		if cur != nil {
			maps.Copy(next, *cur)
		}
		next[n] = built
		if plans.CompareAndSwap(cur, &next) {
			return built
		}
	}
}

// mul is a*b with each real product rounded before it is summed, as amd64
// computes it: an explicit conversion is a rounding the compiler may not
// fuse across, so arm64, ppc64le, s390x and riscv64 give the same bits.
func mul(a, b complex128) complex128 {
	ar, ai, br, bi := real(a), imag(a), real(b), imag(b)
	return complex(float64(ar*br)-float64(ai*bi), float64(ar*bi)+float64(ai*br))
}

func newPlan(n int) *plan {
	p := &plan{n: n}
	if n&(n-1) == 0 {
		p.pow2 = true
		p.shift = 64 - uint(bits.TrailingZeros(uint(n)))
		p.fwd = stageTwiddles(n, -1.0)
		p.inv = stageTwiddles(n, 1.0)
		return p
	}
	if n <= maxDirectTable {
		p.dfwd = directTable(n, -1.0)
		p.dinv = directTable(n, 1.0)
	}
	return p
}

// stageTwiddles replays the seed transform's per-stage twiddle recurrence
// (w starts at 1 and multiplies by e^(sign·2πi/size) per butterfly) into a
// flat table. The recurrence — not a closed-form cmplx.Exp per entry — is
// what keeps the table bit-identical to the values the inline loop used.
func stageTwiddles(n int, sign float64) []complex128 {
	tbl := make([]complex128, 0, n-1)
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := sign * 2 * math.Pi / float64(size)
		wBase := cmplx.Exp(complex(0, step))
		w := complex(1, 0)
		for k := 0; k < half; k++ {
			tbl = append(tbl, w)
			w = mul(w, wBase)
		}
	}
	return tbl
}

// directTable tabulates twiddle(sign, k, j, n) for every k, j.
func directTable(n int, sign float64) []complex128 {
	tbl := make([]complex128, n*n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			tbl[k*n+j] = twiddle(sign, k, j, n)
		}
	}
	return tbl
}

// twiddle is e^(sign·2πi·kj/n) with the exact angle expression the seed's
// O(N²) loop used, so a table entry and an on-the-fly term share bits.
func twiddle(sign float64, k, j, n int) complex128 {
	angle := sign * 2 * math.Pi * float64(k) * float64(j) / float64(n)
	return cmplx.Exp(complex(0, angle))
}

// at is twiddle(sign, k, j, n) read from tbl, or evaluated on the fly for
// a length with no table.
func (p *plan) at(tbl []complex128, sign float64, k, j int) complex128 {
	if tbl == nil {
		return twiddle(sign, k, j, p.n)
	}
	return tbl[k*p.n+j]
}

// forwardReal is the forward transform of a real series. The real→complex
// widening happens during the bit-reversal copy (power-of-two n); a direct
// term is the sample times the twiddle's two parts, 2 products where mul
// takes 4. The two it skips multiply the sample's zero imaginary part, so
// each is ±0 and moves the term by at most the sign of a zero, and a ±0
// term never changes a running sum that starts at +0 (only −0 + −0 is −0):
// every bin keeps the bits of the complex transform.
func (p *plan) forwardReal(dst []complex128, src []float64) {
	if p.pow2 {
		for i, v := range src {
			dst[bits.Reverse64(uint64(i))>>p.shift] = complex(v, 0)
		}
		p.stages(dst, false)
		return
	}
	for k := range dst {
		var re, im float64
		for j, v := range src {
			w := p.at(p.dfwd, -1, k, j)
			re += float64(v * real(w))
			im += float64(v * imag(w))
		}
		dst[k] = complex(re, im)
	}
}

// inverse is the unnormalized inverse transform of a thresholded spectrum
// into dst (not aliasing it; callers apply the seed's 1/N). A direct sum
// runs over the bins Threshold kept: a zero bin's term is ±0 (the twiddles
// are finite), which leaves the sum as it is, as above.
func (p *plan) inverse(dst, src []complex128) {
	if p.pow2 {
		for i, v := range src {
			dst[bits.Reverse64(uint64(i))>>p.shift] = v
		}
		p.stages(dst, true)
		return
	}
	var keptArr [maxDirectTable]int
	kept := keptArr[:]
	if len(src) > len(kept) {
		kept = make([]int, len(src))
	}
	m := 0
	for k, v := range src {
		if v != 0 {
			kept[m] = k
			m++
		}
	}
	for i := range dst {
		var sum complex128
		for _, k := range kept[:m] {
			sum += mul(src[k], p.at(p.dinv, 1, i, k))
		}
		dst[i] = sum
	}
}

// stages runs the iterative radix-2 butterflies in place over dst, reading
// twiddles from the precomputed stage table. Pairing, operand order, and
// twiddle values match the seed loop exactly.
func (p *plan) stages(dst []complex128, inverse bool) {
	tbl := p.fwd
	if inverse {
		tbl = p.inv
	}
	n := p.n
	off := 0
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stage := tbl[off : off+half]
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				even := dst[start+k]
				odd := mul(dst[start+k+half], stage[k])
				dst[start+k] = even + odd
				dst[start+k+half] = even - odd
			}
		}
		off += half
	}
}
