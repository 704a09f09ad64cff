package refactor

import (
	"tango/internal/errmetric"
	"tango/internal/tensor"
)

// prober evaluates the exact achieved accuracy at a sequence of ladder
// cursors, reusing reconstruction state between probes. The ladder
// refinement probes runs of adjacent cursors (a sweep candidate, then
// its ±1 neighbours), so rebuilding the full prolongate-and-add chain
// per probe — what Achieved does — redoes almost identical work each
// time. The prober instead keeps the cursor zone's coarse field and its
// prolongation, and on a cursor step:
//
//   - applies (or exactly un-applies, from the zone's floor) the delta
//     entries to the coarse field, and
//   - recomputes only the fine points inside the changed coarse nodes'
//     interpolation support, with the same corner-sum expression
//     Prolongate evaluates.
//
// Every fine point is therefore either untouched or recomputed from
// identical inputs with identical arithmetic, so the probed accuracy is
// bit-identical to Achieved at the same cursor. Zones more than one
// prolongation away from the finest level fall back to re-running the
// chain below the zone (still skipping everything at or above it);
// their entries are a geometrically small share of the stream.
type prober struct {
	h      *Hierarchy
	st     errmetric.Stats
	ref    []float64
	floors []*tensor.Tensor // read-only: un-apply restores from them

	pos    int // current zone (order position); -1 before the first probe
	take   int // entries of zone pos currently applied to coarse
	coarse *tensor.Tensor
	// rec is the level-0 reconstruction at the current cursor. Nothing
	// prolongates below the finest zone, so there coarse is a view of it.
	rec []float64

	// Single-prolongation fast path (a level-1 zone interpolates straight
	// to the finest level): Prolongate's interpolation tables, rebuilt on
	// zone entry.
	fineDims []int
	cd       []int
	pl       *prolongation
	fStrides []int

	jbuf, idxbuf, lobuf, hibuf, bases []int // recomputeSupport scratch
	ws                                []float64
}

func newProber(h *Hierarchy, st errmetric.Stats, orig *tensor.Tensor, floors []*tensor.Tensor) *prober {
	return &prober{h: h, st: st, ref: orig.Data(), floors: floors, rec: h.workField(), pos: -1}
}

// achieved returns the exact accuracy of Recompose(cursor) against the
// reference — bit-identical to Achieved(orig, cursor).
func (p *prober) achieved(cursor int) float64 {
	pos, take := p.h.split(cursor)
	if pos != p.pos {
		p.enterZone(pos, take)
	} else {
		p.moveTo(take)
	}
	return p.st.Measure(p.h.opts.Metric, p.ref, p.rec)
}

// enterZone initializes probe state for the zone at order position pos
// with take entries applied.
func (p *prober) enterZone(pos, take int) {
	h := p.h
	lvl := h.order[pos]
	floor := p.floors[pos]
	p.pos = pos
	if lvl == 0 {
		// The finest zone's field is the reconstruction: build it in rec.
		copy(p.rec, floor.Data())
		p.coarse = tensor.FromData(p.rec, floor.Dims()...)
	} else {
		p.coarse = floor.Clone()
	}
	data, aug := p.coarse.Data(), h.augs[lvl]
	for k, ix := range aug.idx[:take] {
		data[ix] += aug.val[k]
	}
	p.take = take
	if lvl == 1 {
		p.buildTables()
	}
	if lvl > 0 {
		h.prolongateToFinest(p.rec, p.coarse, lvl)
	}
}

// moveTo steps the applied-entry count of the current zone to take.
func (p *prober) moveTo(take int) {
	h := p.h
	lvl := h.order[p.pos]
	data, aug := p.coarse.Data(), h.augs[lvl]
	lo, hi := take, p.take // changed entry range [lo, hi)
	switch {
	case take == p.take:
		return
	case take > p.take:
		lo, hi = p.take, take
		for k, ix := range aug.idx[lo:hi] {
			data[ix] += aug.val[lo+k]
		}
	default:
		// Un-apply by restoring floor values: exact, where subtracting
		// the entry back out would round. extractEntries emits an index at
		// most once per level, so the floor at an entry's index is that
		// entry's pre-apply value whatever else is applied.
		floor := p.floors[p.pos].Data()
		for _, ix := range aug.idx[lo:hi] {
			data[ix] = floor[ix]
		}
	}
	p.take = take
	if lvl == 0 {
		return // the single-point coarse writes were the update
	}
	if lvl == 1 {
		sup := 1
		for range p.cd {
			sup *= 2*h.opts.Decimation - 1
		}
		if (hi-lo)*sup < len(p.rec) {
			for _, ix := range aug.idx[lo:hi] {
				p.recomputeSupport(int(ix))
			}
			return
		}
	}
	h.prolongateToFinest(p.rec, p.coarse, lvl)
}

// buildTables precomputes Prolongate's interpolation tables for the
// current zone's single-step prolongation, so support recomputation
// evaluates the identical corner sums.
func (p *prober) buildTables() {
	h := p.h
	p.fineDims = h.levelDims[h.order[p.pos+1]]
	p.cd = p.coarse.Dims()
	rank := len(p.fineDims)
	p.pl = newProlongation(p.cd, p.fineDims, h.opts.Decimation)
	p.fStrides = tensor.Strides(p.fineDims)
	p.jbuf = make([]int, rank)
	p.idxbuf = make([]int, rank)
	p.lobuf = make([]int, rank)
	p.hibuf = make([]int, rank)
	p.bases = make([]int, 1<<(rank-1))
	p.ws = make([]float64, 1<<(rank-1))
}

// recomputeSupport refreshes the fine points whose interpolation reads
// the coarse node at flat offset coarseOff, a row segment at a time with
// Prolongate's own kernel.
func (p *prober) recomputeSupport(coarseOff int) {
	d := p.h.opts.Decimation
	rank := len(p.cd)
	j := p.jbuf
	unravel(coarseOff, p.cd, j)
	for i := 0; i < rank; i++ {
		nf, nc := p.fineDims[i], p.cd[i]
		lo := (j[i]-1)*d + 1
		if lo < 0 {
			lo = 0
		}
		hi := (j[i]+1)*d - 1
		// Fine points past the last coarse node clamp to it.
		if j[i] == nc-1 || hi > nf-1 {
			hi = nf - 1
		}
		p.lobuf[i], p.hibuf[i] = lo, hi
		p.idxbuf[i] = lo
	}
	last := rank - 1
	x0, x1 := p.lobuf[last], p.hibuf[last]+1
	outer := p.idxbuf[:last]
	src, rec := p.coarse.Data(), p.rec
	for {
		off := x0
		for i, x := range outer {
			off += x * p.fStrides[i]
		}
		n := p.pl.corners(outer, p.ws, p.bases)
		p.pl.segment(rec[off:off+x1-x0], src, p.ws[:n], p.bases[:n], x0)
		i := last - 1
		for ; i >= 0; i-- {
			outer[i]++
			if outer[i] <= p.hibuf[i] {
				break
			}
			outer[i] = p.lobuf[i]
		}
		if i < 0 {
			return
		}
	}
}
