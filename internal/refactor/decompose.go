package refactor

import (
	"fmt"
	"math"

	"tango/internal/errmetric"
	"tango/internal/par"
	"tango/internal/tensor"
)

// Decompose refactors orig into a Hierarchy per opts. The decomposition
// is lossless at full augmentation: applying every entry reconstructs
// orig up to floating-point rounding (a few ulps — entries store the
// difference fine − prolongated, and (a−b)+b is not bit-exact in IEEE
// arithmetic). Complexity is O(n·L) for the level pyramid plus
// O(n log n) for magnitude sorting, matching the paper's O(n log n).
func Decompose(orig *tensor.Tensor, opts Options) (*Hierarchy, error) {
	opts = opts.withDefaults()
	if opts.Levels < 1 {
		return nil, fmt.Errorf("refactor: Levels %d < 1", opts.Levels)
	}
	if opts.Decimation < 2 {
		return nil, fmt.Errorf("refactor: Decimation %d < 2", opts.Decimation)
	}
	if err := validateBounds(opts.Metric, opts.Bounds); err != nil {
		return nil, err
	}
	if uint64(orig.Len()) > math.MaxUint32 {
		return nil, fmt.Errorf("refactor: grid of %d points: entry indices are 32-bit", orig.Len())
	}

	// Clamp levels: restricting a grid whose dims are all 1 is useless.
	maxL := 1
	dims := orig.Dims()
	for !allOnes(dims) {
		dims = CoarseDims(dims, opts.Decimation)
		maxL++
	}
	if opts.Levels > maxL {
		opts.Levels = maxL
	}
	L := opts.Levels

	// Build the level pyramid and augmentations.
	levels := make([]*tensor.Tensor, L)
	levels[0] = orig
	levelDims := make([][]int, L)
	levelDims[0] = append([]int(nil), orig.Dims()...)
	for l := 1; l < L; l++ {
		levels[l] = Restrict(levels[l-1], opts.Decimation)
		levelDims[l] = append([]int(nil), levels[l].Dims()...)
	}

	base := levels[L-1] // Restrict built it, unless it is the caller's orig
	if L == 1 {
		base = orig.Clone()
	}
	h := &Hierarchy{
		opts:      opts,
		levelDims: levelDims,
		base:      base,
		augs:      make([]stream, max(L-1, 0)),
		origLen:   orig.Len(),
	}

	// One level-0 field holds each level's prolongation, dead once
	// extracted from, then the sort's value column (no level has more
	// entries than level 0 has points), the sweep's prolongated floor and
	// the prober's reconstruction. The first, largest level sizes ss.
	h.scratch = make([]float64, orig.Len())
	defer func() { h.scratch = nil }()
	var ss sortScratch
	for l := 0; l < L-1; l++ {
		pro := h.scratch[:levels[l].Len()]
		prolongateInto(pro, levels[l+1], levelDims[l], opts.Decimation)
		h.augs[l] = extractEntries(levels[l].Data(), pro)
		// Descending |value|; ties broken by index for determinism.
		// (NoSort keeps index order — ablation of §III-B2 step 3.)
		if !opts.NoSort {
			sortEntries(h.augs[l], h.scratch, &ss)
		}
	}

	h.index()

	if len(opts.Bounds) == 0 || len(h.order) == 0 {
		h.baseAcc = h.Achieved(orig, 0)
	}
	if err := h.buildLadder(orig); err != nil {
		return nil, err
	}
	return h, nil
}

// workField returns Decompose's level-0 scratch, or a fresh field on a
// finished hierarchy (tests drive runSweep and the prober directly).
func (h *Hierarchy) workField() []float64 {
	if h.scratch == nil {
		return make([]float64, h.origLen)
	}
	return h.scratch
}

func allOnes(dims []int) bool {
	for _, d := range dims {
		if d > 1 {
			return false
		}
	}
	return true
}

func validateBounds(k errmetric.Kind, bounds []float64) error {
	for i, b := range bounds {
		if math.IsNaN(b) {
			return fmt.Errorf("refactor: bound %d is NaN", i)
		}
		if k == errmetric.NRMSE && b <= 0 {
			return fmt.Errorf("refactor: NRMSE bound %v must be > 0", b)
		}
		if i > 0 && !k.Better(b, bounds[i-1]) {
			return fmt.Errorf("refactor: bounds must be ordered loose→tight; %v does not tighten %v under %s",
				b, bounds[i-1], k)
		}
	}
	return nil
}

// extractEntries collects the nonzero fine−prolongated differences in
// index order. Chunks are counted and filled in parallel into disjoint
// output ranges; chunk-ordered offsets make the concatenation identical
// to a sequential scan.
func extractEntries(fine, pd []float64) stream {
	n := len(fine)
	nc := par.NumChunks(n)
	// offs[c+1] counts chunk c's entries, then sums into chunk c+1's start.
	offs := make([]int, nc+1)
	par.ForChunk(n, func(c, lo, hi int) {
		k := 0
		for i := lo; i < hi; i++ {
			if fine[i]-pd[i] != 0 {
				k++
			}
		}
		offs[c+1] = k
	})
	for c := range nc {
		offs[c+1] += offs[c]
	}
	if offs[nc] == 0 {
		return stream{}
	}
	s := stream{make([]uint32, offs[nc]), make([]float64, offs[nc])}
	par.ForChunk(n, func(c, lo, hi int) {
		k := offs[c]
		for i := lo; i < hi; i++ {
			if diff := fine[i] - pd[i]; diff != 0 {
				s.idx[k], s.val[k] = uint32(i), diff
				k++
			}
		}
	})
	return s
}

// buildLadder finds, for each bound, the smallest cursor whose
// reconstruction satisfies it. A single incremental sweep (sweep.go)
// walks the whole augmentation stream once in retrieval order,
// maintaining the sum of squared errors of the running reconstruction,
// and records the first cursor crossing each bound's SSE budget —
// O(n·L + TotalEntries) for the whole hierarchy, versus O(B·n·L·log n)
// for per-bound binary search with a full Recompose and full-array
// measure per probe. The reported accuracy then comes from one exact
// Achieved call per rung, and a ±1-step verification against that exact
// measure absorbs the few-ulp difference between the incrementally
// maintained SSE and a fresh measure, so rung cursors and recorded
// accuracies are the ones the probing search produced. (This also
// retires the old coarse-step "non-monotone wobble" re-verify loop: the
// sweep observes every cursor, not just probe midpoints.)
func (h *Hierarchy) buildLadder(orig *tensor.Tensor) error {
	h.rungs = h.rungs[:0]
	if len(h.opts.Bounds) == 0 {
		return nil
	}
	if len(h.order) == 0 {
		// Degenerate single-level hierarchy: the base is the original;
		// every bound is satisfied (or unreachable) at cursor 0, whose
		// accuracy Decompose has measured.
		acc := h.baseAcc
		for _, bound := range h.opts.Bounds {
			if !h.opts.Metric.Satisfies(acc, bound) {
				return fmt.Errorf("refactor: bound %v unreachable (full reconstruction achieves %v)", bound, acc)
			}
			h.pushRung(bound, acc, 0, 0)
		}
		return nil
	}
	st := errmetric.NewStats(orig.Data())
	sw := h.runSweep(orig, st)
	h.baseAcc = sw.baseAcc
	pr := newProber(h, st, orig, sw.floors)
	total := h.TotalEntries()
	prevCursor := 0
	for bi, bound := range h.opts.Bounds {
		cursor := sw.candidates[bi]
		if cursor < 0 {
			cursor = total
		}
		if cursor < prevCursor {
			cursor = prevCursor
		}
		acc := pr.achieved(cursor)
		// Forward: the swept SSE can sit a few ulps under the exact
		// measure right at the crossing; advance until exact agreement.
		for !h.opts.Metric.Satisfies(acc, bound) && cursor < total {
			cursor++
			acc = pr.achieved(cursor)
		}
		if !h.opts.Metric.Satisfies(acc, bound) {
			return fmt.Errorf("refactor: bound %v unreachable (full reconstruction achieves %v)", bound, acc)
		}
		// Backward: or a few ulps over; retreat to the smallest cursor
		// the exact measure accepts.
		for cursor > prevCursor {
			a := pr.achieved(cursor - 1)
			if !h.opts.Metric.Satisfies(a, bound) {
				break
			}
			cursor--
			acc = a
		}
		h.pushRung(bound, acc, cursor, prevCursor)
		prevCursor = cursor
	}
	return nil
}

// pushRung sums the rung's entry sizes directly: the ladder is built
// before anything retrieves, and the retrieval index waits for that.
func (h *Hierarchy) pushRung(bound, achieved float64, cursor, prevCursor int) {
	var size int64
	prev := 0
	for i, c := range h.cum {
		if lo, hi := max(prevCursor, prev), min(cursor, c); lo < hi {
			for _, ix := range h.augs[h.order[i]].idx[lo-prev : hi-prev] {
				size += int64(entrySize(ix))
			}
		}
		prev = c
	}
	h.rungs = append(h.rungs, Rung{
		Bound:       bound,
		Achieved:    achieved,
		Cursor:      cursor,
		Cardinality: cursor - prevCursor,
		Bytes:       size,
		Level:       h.LevelOfCursor(cursor),
	})
}
