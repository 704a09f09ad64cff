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

// planFor returns the shared plan for length n, building it on first use.
// The estimator caches the returned pointer, so even the map lookup is
// off the steady-state path.
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

// directTable tabulates e^(sign·2πi·kj/n) with the exact angle expression
// the O(N²) loop used, preserving bit-identity of every term.
func directTable(n int, sign float64) []complex128 {
	tbl := make([]complex128, n*n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			angle := sign * 2 * math.Pi * float64(k) * float64(j) / float64(n)
			tbl[k*n+j] = cmplx.Exp(complex(0, angle))
		}
	}
	return tbl
}

// fft computes the unnormalized DFT (or conjugate-direction inverse) of
// src into dst without allocating. dst and src must have length n and must
// not alias. Callers that need the 1/N inverse normalization replicate the
// seed's out[i] *= inv multiply themselves.
func (p *plan) fft(dst, src []complex128, inverse bool) {
	if p.pow2 {
		for i, v := range src {
			dst[bits.Reverse64(uint64(i))>>p.shift] = v
		}
		p.stages(dst, inverse)
		return
	}
	p.direct(dst, src, inverse)
}

// fftReal is the forward transform of a real-valued source: the
// real→complex widening happens during the bit-reversal copy (power-of-two
// n) so no complex staging buffer is needed.
func (p *plan) fftReal(dst []complex128, src []float64) {
	for i, v := range src {
		dst[bits.Reverse64(uint64(i))>>p.shift] = complex(v, 0)
	}
	p.stages(dst, false)
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

// direct is the O(N²) transform for non-power-of-two lengths: table-driven
// when a table exists, otherwise the seed's on-the-fly evaluation.
func (p *plan) direct(dst, src []complex128, inverse bool) {
	n := p.n
	tbl := p.dfwd
	if inverse {
		tbl = p.dinv
	}
	if tbl != nil {
		for k := 0; k < n; k++ {
			row := tbl[k*n : k*n+n]
			var sum complex128
			for j, v := range src {
				sum += mul(v, row[j])
			}
			dst[k] = sum
		}
		return
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			angle := sign * 2 * math.Pi * float64(k) * float64(j) / float64(n)
			sum += mul(src[j], cmplx.Exp(complex(0, angle)))
		}
		dst[k] = sum
	}
}
