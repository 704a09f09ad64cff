// Package refactor implements the paper's error-bounded refactorization
// (§III-B): hierarchical decomposition of a tensor into a base
// representation plus per-level augmentations, with augmentation data
// points sorted by magnitude and bucketed so that any prescribed NRMSE or
// PSNR bound maps to a contiguous prefix of the stored stream, and the
// inverse recomposition used at analysis time (§III-C, Algorithm 1).
package refactor

import (
	"fmt"

	"tango/internal/par"
	"tango/internal/tensor"
)

// unravel fills idx with the multi-index of flat offset off for dims.
func unravel(off int, dims, idx []int) {
	for i := len(dims) - 1; i >= 0; i-- {
		idx[i] = off % dims[i]
		off /= dims[i]
	}
}

// increment advances idx to the next row-major multi-index within dims.
func increment(idx, dims []int) {
	for i := len(dims) - 1; i >= 0; i-- {
		idx[i]++
		if idx[i] < dims[i] {
			return
		}
		idx[i] = 0
	}
}

// CoarseDims returns the dimensions of the restriction of a grid with
// dims by decimation factor d: indices {0, d, 2d, …} are retained along
// each dimension.
func CoarseDims(dims []int, d int) []int {
	out := make([]int, len(dims))
	for i, n := range dims {
		out[i] = (n-1)/d + 1
	}
	return out
}

// Restrict retains every d-th data point of t along each dimension
// (paper §III-B2 step 1). d must be >= 2.
func Restrict(t *tensor.Tensor, d int) *tensor.Tensor {
	if d < 2 {
		panic(fmt.Sprintf("refactor: decimation factor %d must be >= 2", d))
	}
	dims := t.Dims()
	cd := CoarseDims(dims, d)
	out := tensor.New(cd...)
	src := t.Data()
	dst := out.Data()

	rank := len(dims)
	// Workers own disjoint output ranges, so the parallel execution is
	// bit-identical to the sequential one.
	par.For(len(dst), func(lo, hi int) {
		idx := make([]int, rank) // coarse multi-index
		unravel(lo, cd, idx)
		for off := lo; off < hi; off++ {
			// Map the coarse multi-index to its fine row-major offset.
			fineOff := 0
			for i := 0; i < rank; i++ {
				fineOff = fineOff*dims[i] + idx[i]*d
			}
			dst[off] = src[fineOff]
			increment(idx, cd)
		}
	})
	return out
}

// Prolongate interpolates a coarse tensor back onto a fine grid with the
// given dims using multilinear interpolation (paper §III-B2 step 2,
// "prolongate(·)"). Coarse nodes sit at fine indices {0, d, 2d, …}; fine
// points beyond the last coarse node along a dimension clamp to it.
// Prolongation is exact at coarse-node positions, which is what makes
// augmentation values zero there.
func Prolongate(coarse *tensor.Tensor, fineDims []int, d int) *tensor.Tensor {
	out := tensor.New(fineDims...)
	prolongateInto(out.Data(), coarse, fineDims, d)
	return out
}

// prolongateInto is Prolongate into a caller-owned field: dst must hold
// exactly the fine grid's points and may be dirty — every point is
// assigned, none accumulated into.
func prolongateInto(dst []float64, coarse *tensor.Tensor, fineDims []int, d int) {
	if d < 2 {
		panic(fmt.Sprintf("refactor: decimation factor %d must be >= 2", d))
	}
	cd := coarse.Dims()
	want := CoarseDims(fineDims, d)
	if len(cd) != len(fineDims) {
		panic("refactor: rank mismatch in Prolongate")
	}
	n := 1
	for i := range cd {
		if cd[i] != want[i] {
			panic(fmt.Sprintf("refactor: coarse dims %v incompatible with fine dims %v at d=%d", cd, fineDims, d))
		}
		n *= fineDims[i]
	}
	if len(dst) != n {
		panic(fmt.Sprintf("refactor: prolongation target holds %d points, fine dims %v need %d", len(dst), fineDims, n))
	}
	src := coarse.Data()
	p := newProlongation(cd, fineDims, d)
	// Workers own disjoint output ranges (a range may start and end
	// mid-row), so the parallel execution is bit-identical to the
	// sequential one.
	par.For(len(dst), func(from, to int) { p.fill(dst, src, from, to) })
}

// prolongation holds one coarse→fine step's interpolation tables. The
// value of a fine point is defined as a sum over its 2^rank surrounding
// coarse corners, and every evaluation keeps that definition's float
// operations in order so results do not depend on how points are grouped:
// v starts at +0; corners are visited c = 0 … 2^rank−1 with bit i of c
// selecting the upper node along dimension i; a corner's weight is the
// left-to-right product ((1·a₀)·a₁)… with a_i = 1−f_i (lower) or f_i
// (upper); a corner with any upper f_i == 0 is skipped rather than
// multiplied by zero (an Inf/NaN at a zero-weight node must not leak);
// then v += w·src[corner].
//
// The last (contiguous) dimension is the most significant bit of c, so
// for one output row the order is "every surviving outer corner with the
// lower x node, then every surviving outer corner with the upper x node",
// and the outer dimensions' prefix of the weight product is the same for
// the whole row: corners computes those (prefix, source row base) pairs
// once per row and segment does two multiplies and an add per pair and
// point.
type prolongation struct {
	dims    []int       // fine dims
	lo      [][]int     // lo[i][x]: lower coarse node of fine coordinate x
	fr      [][]float64 // fr[i][x]: weight of the upper node; 0 at a coarse node and in the clamped tail
	strides []int       // coarse row-major strides
}

func newProlongation(cd, fineDims []int, d int) *prolongation {
	rank := len(fineDims)
	p := &prolongation{
		dims:    fineDims,
		lo:      make([][]int, rank),
		fr:      make([][]float64, rank),
		strides: tensor.Strides(cd),
	}
	for i, n := range fineDims {
		nc := cd[i]
		lo, fr := make([]int, n), make([]float64, n)
		for x := range lo {
			q := x / d
			f := float64(x-q*d) / float64(d)
			if q >= nc-1 {
				q, f = nc-1, 0
			}
			lo[x], fr[x] = q, f
		}
		p.lo[i], p.fr[i] = lo, fr
	}
	return p
}

// stackCorners is the outer-corner count (2^(rank−1)) up to which fill
// keeps its scratch on the stack: rank <= 4.
const stackCorners = 8

// fill computes the fine points at flat offsets [from, to).
//
//tango:hotpath
func (p *prolongation) fill(dst, src []float64, from, to int) {
	outer := p.dims[:len(p.dims)-1]
	var idxBuf, baseBuf [stackCorners]int
	var wBuf [stackCorners]float64
	idx, bases, ws := idxBuf[:], baseBuf[:], wBuf[:]
	if n := 1 << len(outer); n > stackCorners {
		idx, bases, ws = make([]int, len(outer)), make([]int, n), make([]float64, n)
	}
	idx = idx[:len(outer)]

	nx := p.dims[len(outer)]
	row := from / nx
	x := from - row*nx
	unravel(row, outer, idx)
	for off := from; off < to; {
		n := p.corners(idx, ws, bases)
		end := min(to, off+nx-x)
		p.segment(dst[off:end], src, ws[:n], bases[:n], x)
		off, x = end, 0
		increment(idx, outer)
	}
}

// corners lists the surviving outer corners — dimensions 0 … rank−2 — of
// the row at outer multi-index idx, in corner order: the prefix weight
// into ws and the coarse offset of the corner's source row into bases.
// It returns how many survive (at least one: the all-lower corner).
func (p *prolongation) corners(idx []int, ws []float64, bases []int) int {
	n := 0
corner:
	for c := 0; c < 1<<len(idx); c++ {
		w := 1.0
		base := 0
		for i, x := range idx {
			if c&(1<<i) != 0 {
				f := p.fr[i][x]
				if f == 0 {
					continue corner
				}
				w *= f
				base += (p.lo[i][x] + 1) * p.strides[i]
			} else {
				w *= 1 - p.fr[i][x]
				base += p.lo[i][x] * p.strides[i]
			}
		}
		ws[n], bases[n] = w, base
		n++
	}
	return n
}

// segment computes the len(dst) consecutive points of one row that start
// at last-dimension coordinate x0, from that row's outer corners.
func (p *prolongation) segment(dst, src, ws []float64, bases []int, x0 int) {
	last := len(p.dims) - 1
	lo, fr := p.lo[last][x0:], p.fr[last][x0:]
	bases = bases[:len(ws)] // one bounds check here, none per bases[k] below
	for j := range dst {
		l, f := lo[j], fr[j]
		g := 1 - f
		var v float64
		for k, w := range ws {
			v += float64((w * g) * src[bases[k]+l])
		}
		if f != 0 {
			for k, w := range ws {
				v += float64((w * f) * src[bases[k]+l+1])
			}
		}
		dst[j] = v
	}
}
