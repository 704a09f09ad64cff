package refactor

import (
	"tango/internal/errmetric"
	"tango/internal/par"
	"tango/internal/tensor"
)

// Single-sweep incremental ladder construction.
//
// The retrieval order applies each level's entries only after every
// coarser level is complete, so for all cursors inside one level the
// reconstruction is
//
//	rec(c) = prolongate⁰(floor_l) + Σ_{applied e} e.Value · B_e
//
// where floor_l is the running level-l field before any of level l's
// entries and B_e is entry e's basis prolongated to the original grid.
// The prolongated floor is therefore fixed once per level boundary:
// the sweep re-anchors the error field err = orig − prolongate⁰(floor_l)
// and its sum of squared errors there (one O(n) pass), then updates both
// in O(|support(B_e)|) as the cursor advances — O(1) for level-0 entries
// (the bulk of the stream; their basis is a single point) and a small
// constant box for the few coarse-level entries. One pass over the
// whole hierarchy costs O(n·L + TotalEntries) instead of the
// O(B·n·L·log n) of per-bound binary search with a full Recompose and
// full-array measure per probe.

// wpt is one (fine position, weight) pair of a composed 1-D
// prolongation column.
type wpt struct {
	pos int
	w   float64
}

type sweepResult struct {
	// candidates[i] is the first cursor whose swept SSE satisfies
	// bounds[i], or -1 if the sweep never crossed that budget.
	candidates []int
	// floors[pos] is the level-order[pos] field at that zone's boundary
	// (coarser zones fully applied, none of this zone's entries) — the
	// state Recompose reaches right after its pos-th prolongation. The
	// prober resumes a reconstruction from here instead of replaying the
	// whole prolongate-and-add chain from the base, and reads an entry's
	// pre-apply value back out of it; it must not be written.
	floors []*tensor.Tensor
	// baseAcc is the exact (sequential-measure) accuracy of the base
	// alone, computed from the first boundary's prolongated floor —
	// bit-identical to Achieved(orig, 0), one reconstruction cheaper.
	baseAcc float64
}

// composedColumns returns, for one dimension, the level-lvl → level-0
// prolongation columns: cols[j] lists the (fine position, weight) pairs
// of coarse node j's composed basis along that dimension. Prolongation
// is separable, so a level-lvl entry's full basis is the tensor product
// of its per-dimension columns.
//
// A column is the unit vector e_j prolongated level by level. Only its
// support window is stored — w holds positions [a, a+len(w)) and reads as
// 0 outside — since a node's basis spans at most its two neighbours'
// interval at every level; x + f·0 == x, so the weights are those of the
// dense vector. The windows do not depend on the weights, so a first pass
// sizes them: every column is then carved from one backing array, and
// the weights ping-pong between two buffers as wide as the widest window.
func (h *Hierarchy) composedColumns(lvl, dim int) [][]wpt {
	d := h.opts.Decimation
	m := func(l int) int { return h.levelDims[l][dim] }
	// Fine x reads coarse nodes x/d and x/d+1 (the last node alone from
	// the clamped tail on), so the level-l window [a, a+k) lands on the
	// level-(l-1) window [fa, fb].
	fine := func(l, a, k int) (fa, fb int) {
		return max((a-1)*d+1, 0), min((a+k)*d-1, m(l-1)-1)
	}
	total, widest := 0, 1
	for j := 0; j < m(lvl); j++ {
		a, k := j, 1
		for l := lvl; l >= 1; l-- {
			fa, fb := fine(l, a, k)
			a, k = fa, fb-fa+1
			widest = max(widest, k)
		}
		total += k
	}
	backing := make([]wpt, 0, total)
	bufs := [2][]float64{make([]float64, widest), make([]float64, widest)}
	cols := make([][]wpt, m(lvl))
	for j := range cols {
		a, w := j, bufs[0][:1]
		w[0] = 1
		at := func(p int) float64 {
			if p < a || p >= a+len(w) {
				return 0
			}
			return w[p-a]
		}
		for l, side := lvl, 1; l >= 1; l, side = l-1, 1-side {
			nc := m(l)
			fa, fb := fine(l, a, len(w))
			next := bufs[side][:fb-fa+1]
			for x := fa; x <= fb; x++ {
				p := x / d
				f := float64(x-p*d) / float64(d)
				if p >= nc-1 {
					p, f = nc-1, 0
				}
				if f == 0 {
					next[x-fa] = at(p)
				} else {
					next[x-fa] = float64((1-f)*at(p)) + float64(f*at(p+1))
				}
			}
			a, w = fa, next
		}
		start := len(backing)
		for x, v := range w {
			if v != 0 {
				backing = append(backing, wpt{a + x, v})
			}
		}
		cols[j] = backing[start:len(backing):len(backing)]
	}
	return cols
}

// basisWalk applies one coarse entry's composed basis — the tensor
// product of one column per dimension — to the error field, for any
// rank, with one odometer instead of a recursion per dimension. It
// visits the points in the order the recursion did (dim 0 outermost)
// and forms each weight as ((1·w₀)·w₁)…, so every float is the same.
type basisWalk struct {
	basis   [][]wpt   // the entry's column along each dimension
	strides []int     // level-0 row-major strides
	k       []int     // odometer: position in basis[dim], dims 0..rank-2
	ws      []float64 // ws[dim] is the weight product of dims < dim
	offs    []int     // offs[dim] is the offset sum of dims < dim
}

func newBasisWalk(strides []int) *basisWalk {
	rank := len(strides)
	b := &basisWalk{
		basis:   make([][]wpt, rank),
		strides: strides,
		k:       make([]int, rank),
		ws:      make([]float64, rank),
		offs:    make([]int, rank),
	}
	b.ws[0] = 1
	return b
}

// apply subtracts v·basis from errv and returns sse moved by the same
// point updates, in visiting order. No column is empty: node j's own fine
// position carries weight 1.
func (b *basisWalk) apply(errv []float64, sse, v float64) float64 {
	last := len(b.basis) - 1
	ws, offs := b.ws, b.offs
	for dim := 0; ; {
		for ; dim < last; dim++ {
			p := b.basis[dim][b.k[dim]]
			ws[dim+1] = ws[dim] * p.w
			offs[dim+1] = offs[dim] + p.pos*b.strides[dim]
		}
		for _, p := range b.basis[last] {
			off, w := offs[last]+p.pos*b.strides[last], ws[last]*p.w
			old := errv[off]
			nw := old - float64(v*w)
			sse += float64(nw*nw) - float64(old*old)
			errv[off] = nw
		}
		for dim = last - 1; dim >= 0; dim-- {
			if b.k[dim]++; b.k[dim] < len(b.basis[dim]) {
				break
			}
			b.k[dim] = 0
		}
		if dim < 0 {
			return sse
		}
	}
}

// prolongateToFinest interpolates r, a level-lvl field with lvl >= 1, down
// to level 0 into dst. Only the intermediate levels allocate.
func (h *Hierarchy) prolongateToFinest(dst []float64, r *tensor.Tensor, lvl int) {
	d := h.opts.Decimation
	for j := lvl - 1; j >= 1; j-- {
		r = Prolongate(r, h.levelDims[j], d)
	}
	prolongateInto(dst, r, h.levelDims[0], d)
}

// runSweep walks the augmentation stream once in retrieval order,
// maintaining the reconstruction error against orig, and returns the
// per-bound candidate cursors. It keeps no error field of its own: a
// coarse zone's error overwrites the work field it prolongates into, and
// the finest zone, whose floor it must not write, gathers each entry's
// SSE delta there instead (a level names each index once, so an entry's
// old error is ref − floor). The deltas are gathered in parallel and
// added in stream order: every addition is one serial walk's, at any
// worker count.
func (h *Hierarchy) runSweep(orig *tensor.Tensor, st errmetric.Stats) sweepResult {
	ref := orig.Data()
	n := len(ref)
	metric := h.opts.Metric
	bounds := h.opts.Bounds

	res := sweepResult{candidates: make([]int, len(bounds))}
	budgets := make([]float64, len(bounds))
	for i, b := range bounds {
		res.candidates[i] = -1
		budgets[i] = st.SSEBudget(metric, b)
	}

	var sse float64
	cursor := 0
	nextBound := 0

	check := func() {
		for nextBound < len(bounds) && sse <= budgets[nextBound] {
			res.candidates[nextBound] = cursor
			nextBound++
		}
	}

	dims0 := h.levelDims[0]
	rank := len(dims0)
	idx := make([]int, rank)
	walk := newBasisWalk(tensor.Strides(dims0))

	d := h.opts.Decimation
	res.floors = make([]*tensor.Tensor, len(h.order))
	work := h.workField()
	cur := h.base // read-only: the first Prolongate below replaces it
	for pos, lvl := range h.order {
		cur = Prolongate(cur, h.levelDims[lvl], d)
		res.floors[pos] = cur
		fd := cur.Data() // the finest zone's floor is its own prolongation
		if lvl > 0 {
			cur = cur.Clone() // takes this zone's entries below; the floor stays
			h.prolongateToFinest(work, cur, lvl)
			fd = work
		}
		if pos == 0 {
			// fd is Recompose(0)'s data; measure ε_0 here sequentially
			// rather than reconstructing it a second time.
			res.baseAcc = st.Measure(metric, ref, fd)
		}
		// Re-anchor SSE at the level boundary: the prolongated floor is
		// fixed for every cursor inside this level. A coarse zone's
		// floor is the work field, which becomes its error field here.
		sse = par.MapReduce(n, func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				e := ref[i] - fd[i]
				if lvl > 0 {
					fd[i] = e
				}
				s += float64(e * e)
			}
			return s
		}, func(a, b float64) float64 { return a + b })
		check()

		if lvl == 0 {
			// Finest level: the basis is a single point — O(1) per entry.
			// Nothing prolongates after this zone, so cur itself needs no
			// update.
			aug, delta := h.augs[0], work[:len(h.augs[0].val)]
			par.For(len(delta), func(lo, hi int) {
				for k, ix := range aug.idx[lo:hi] {
					old := ref[ix] - fd[ix]
					nw := old - aug.val[lo+k]
					delta[lo+k] = float64(nw*nw) - float64(old*old)
				}
			})
			for _, dv := range delta {
				sse += dv
				cursor++
				check()
			}
			continue
		}

		cols := make([][][]wpt, rank)
		for dim := range cols {
			cols[dim] = h.composedColumns(lvl, dim)
		}
		curData := cur.Data()
		cd := h.levelDims[lvl]
		aug := h.augs[lvl]
		for k, ix := range aug.idx {
			v := aug.val[k]
			curData[ix] += v
			unravel(int(ix), cd, idx)
			for dim, j := range idx {
				walk.basis[dim] = cols[dim][j]
			}
			sse = walk.apply(work, sse, v)
			cursor++
			check()
		}
	}
	return res
}
