package refactor

import (
	"fmt"
	"math"
	"sync/atomic"

	"tango/internal/errmetric"
	"tango/internal/par"
	"tango/internal/tensor"
)

// Options configures a decomposition.
type Options struct {
	// Levels is the total number of representation levels L (paper's
	// {Ω^l}): level 0 is the original, level L-1 the base. Levels >= 1;
	// it is clamped to the deepest restriction the grid admits.
	Levels int
	// Decimation is the per-level decimation factor d (default 2).
	Decimation int
	// Metric selects the error metric for the bound ladder.
	Metric errmetric.Kind
	// Bounds is the ladder of error bounds ε_1 … ε_b ordered loose →
	// tight (decreasing for NRMSE, increasing for PSNR). May be empty,
	// in which case only fraction-based augmentation is available.
	Bounds []float64
	// NoSort disables the descending-|value| ordering of augmentation
	// entries (paper §III-B2 step 3). ABLATION ONLY: index order is used
	// instead, demonstrating why magnitude ordering reaches a bound with
	// far fewer retrieved entries.
	NoSort bool
}

func (o Options) withDefaults() Options {
	if o.Decimation == 0 {
		o.Decimation = 2
	}
	if o.Levels == 0 {
		o.Levels = 2
	}
	return o
}

// LevelsForRatio returns the number of levels L whose base representation
// is about `ratio` times smaller (in points) than the original for a grid
// of the given rank: each level shrinks the point count by roughly d^rank.
// This converts the paper's "decimation ratio" figure axis (16, 512,
// 8192, …) into a level count.
func LevelsForRatio(ratio float64, rank, d int) int {
	if ratio <= 1 || rank <= 0 || d < 2 {
		return 1
	}
	perLevel := math.Pow(float64(d), float64(rank))
	l := int(math.Round(math.Log(ratio)/math.Log(perLevel))) + 1
	if l < 2 {
		l = 2
	}
	return l
}

// stream is one level's augmentation entries as two columns: entry i
// names the flat offset idx[i] on its level's grid and the correction
// val[i] added there during recomposition — 12 bytes an entry.
type stream struct {
	idx []uint32
	val []float64
}

// Rung is one step of the error-bound ladder: retrieving the global
// augmentation stream up to Cursor achieves (at least) the accuracy
// Bound. Cardinality and Bytes are incremental relative to the previous
// rung — the paper's |Aug_{ε_m}| used by the weight function.
type Rung struct {
	Bound       float64
	Achieved    float64
	Cursor      int
	Cardinality int
	Bytes       int64
	Level       int // the paper's L(ε): level of the rung's last entries
}

// Segment is a contiguous run of entries at one level, with its encoded
// size; staging uses segments to split a retrieval across tiers.
type Segment struct {
	Level      int
	Start, End int // entry range within the level (End exclusive)
	Bytes      int64
}

// Hierarchy is the refactored dataset: base representation, per-level
// augmentation streams (each sorted by descending |value| — paper
// §III-B2 step 3), and the error-bound ladder. A cursor c in
// [0, TotalEntries()] addresses the retrieval prefix: entries are
// consumed coarse level first (L-2 … 0), by descending magnitude within
// each level.
type Hierarchy struct {
	opts      Options
	levelDims [][]int // [level][dim], level 0 = original
	base      *tensor.Tensor
	augs      []stream // [level 0..L-2]
	order     []int    // retrieval order of levels: L-2 … 0
	cum       []int    // cumulative entry counts per order position
	rungs     []Rung
	baseAcc   float64
	origLen   int

	// scratch is the level-0 work field Decompose lends its stages (see
	// workField); nil once Decompose has returned.
	scratch []float64

	// byteCum holds each level's prefix encoded sizes (len+1), built by
	// the first retrieval read (byteCums): a hierarchy that is only
	// encoded or recomposed never pays 8 bytes an entry for it.
	byteCum atomic.Pointer[[][]int64]
}

// Opts returns the (defaulted) options the hierarchy was built with.
func (h *Hierarchy) Opts() Options { return h.opts }

// Levels returns the actual number of levels (after clamping).
func (h *Hierarchy) Levels() int { return len(h.levelDims) }

// Dims returns the original (level-0) grid dimensions.
func (h *Hierarchy) Dims() []int { return h.levelDims[0] }

// Base returns the base representation Ω^{L-1} (do not mutate).
func (h *Hierarchy) Base() *tensor.Tensor { return h.base }

// BaseBytes returns the encoded size of the base representation.
func (h *Hierarchy) BaseBytes() int64 { return int64(h.base.Len() * 8) }

// BaseAccuracy returns ε_0, the accuracy of the base alone.
func (h *Hierarchy) BaseAccuracy() float64 { return h.baseAcc }

// TotalEntries returns the size of the full augmentation stream.
func (h *Hierarchy) TotalEntries() int {
	if len(h.cum) == 0 {
		return 0
	}
	return h.cum[len(h.cum)-1]
}

// TotalAugBytes returns the encoded size of the full augmentation stream.
func (h *Hierarchy) TotalAugBytes() int64 { return h.BytesForRange(0, h.TotalEntries()) }

// Rungs returns the error-bound ladder (loose → tight).
func (h *Hierarchy) Rungs() []Rung { return h.rungs }

// CursorForBound returns the cursor of the rung for the given bound. The
// bound must be one of the configured Bounds.
func (h *Hierarchy) CursorForBound(bound float64) (int, error) {
	for _, r := range h.rungs {
		if r.Bound == bound {
			return r.Cursor, nil
		}
	}
	return 0, fmt.Errorf("refactor: bound %v not in ladder", bound)
}

// CursorForFraction maps an augmentation degree in [0,1] (the paper's
// abplot output) to a cursor: the fraction of the total augmentation
// stream to retrieve.
func (h *Hierarchy) CursorForFraction(f float64) int {
	if f <= 0 {
		return 0
	}
	if f >= 1 {
		return h.TotalEntries()
	}
	return int(math.Round(f * float64(h.TotalEntries())))
}

// DoFFraction returns the fraction of the original degrees of freedom
// covered by the base plus the first `cursor` augmentation entries
// (Fig 11's y-axis).
func (h *Hierarchy) DoFFraction(cursor int) float64 {
	return (float64(h.base.Len()) + float64(cursor)) / float64(h.origLen)
}

// split returns the order position of the zone a cursor falls in and how
// many of that zone's entries the cursor takes. A cursor on a zone
// boundary belongs to the zone it completes.
func (h *Hierarchy) split(cursor int) (pos int, take int) {
	if cursor < 0 || cursor > h.TotalEntries() {
		panic(fmt.Sprintf("refactor: cursor %d out of range [0,%d]", cursor, h.TotalEntries()))
	}
	prev := 0
	for i, c := range h.cum {
		if cursor <= c {
			return i, cursor - prev
		}
		prev = c
	}
	return len(h.cum) - 1, 0 // unreachable for valid cursors
}

// LevelOfCursor returns the paper's L(ε) for the prefix ending at cursor:
// the level of the last entry included, or L-1 (the base level) when
// cursor is 0.
func (h *Hierarchy) LevelOfCursor(cursor int) int {
	if cursor == 0 {
		return len(h.levelDims) - 1
	}
	pos, take := h.split(cursor)
	if take == 0 && pos > 0 {
		pos--
	}
	return h.order[pos]
}

// Segments returns the per-level contiguous runs covering the cursor
// range [from, to).
func (h *Hierarchy) Segments(from, to int) []Segment {
	return h.AppendSegments(nil, from, to)
}

// AppendSegments appends the segments of [from, to) to dst and returns
// it; the per-step read paths pass a stack array's [:0] so walking a
// range allocates nothing.
//
//tango:hotpath
func (h *Hierarchy) AppendSegments(dst []Segment, from, to int) []Segment {
	if from > to {
		panic(fmt.Sprintf("refactor: invalid segment range [%d,%d)", from, to))
	}
	byteCum := h.byteCums()
	prev := 0
	for i, c := range h.cum {
		if s, e := max(from, prev), min(to, c); s < e {
			lvl, start, end := h.order[i], s-prev, e-prev
			dst = append(dst, Segment{Level: lvl, Start: start, End: end, Bytes: byteCum[lvl][end] - byteCum[lvl][start]})
		}
		prev = c
	}
	return dst
}

// LevelBytes returns the encoded size of the level-local entry range
// [start, end) of one augmentation level. Callers that track per-level
// prefixes (the fast-tier cache) use this to price partial levels
// without walking global-cursor segments.
func (h *Hierarchy) LevelBytes(level, start, end int) int64 {
	if n := h.LevelEntries(level); start < 0 || end < start || end > n {
		panic(fmt.Sprintf("refactor: invalid level-%d entry range [%d,%d)", level, start, end))
	}
	cum := h.byteCums()[level]
	return cum[end] - cum[start]
}

// index builds the retrieval order (coarsest first) and the entry counts
// summed along it.
func (h *Hierarchy) index() {
	h.order = make([]int, len(h.augs))
	h.cum = make([]int, len(h.augs))
	c := 0
	for i := range h.order {
		l := len(h.augs) - 1 - i
		c += len(h.augs[l].val)
		h.order[i], h.cum[i] = l, c
	}
}

// byteCums returns each level's encoded-size prefix sums, building them at
// the first call. They are published as dftestim's plan cache is, so
// goroutines sharing a hierarchy may race to build them: all take the sums
// the CompareAndSwap published.
func (h *Hierarchy) byteCums() [][]int64 {
	if p := h.byteCum.Load(); p != nil {
		return *p
	}
	built := make([][]int64, len(h.augs))
	for l, s := range h.augs {
		built[l] = make([]int64, len(s.idx)+1)
		for i, ix := range s.idx {
			built[l][i+1] = built[l][i] + int64(entrySize(ix))
		}
	}
	h.byteCum.CompareAndSwap(nil, &built)
	return *h.byteCum.Load()
}

// LevelEntries returns the number of augmentation entries at one level.
func (h *Hierarchy) LevelEntries(level int) int {
	if level < 0 || level >= len(h.augs) {
		panic(fmt.Sprintf("refactor: no augmentation level %d", level))
	}
	return len(h.augs[level].val)
}

// BytesForRange returns the encoded size of the cursor range [from, to),
// walking its segments in a stack array.
func (h *Hierarchy) BytesForRange(from, to int) int64 {
	var total int64
	var buf [8]Segment // one per level; a deeper hierarchy only makes AppendSegments grow
	for _, s := range h.AppendSegments(buf[:0], from, to) {
		total += s.Bytes
	}
	return total
}

// Recompose reconstructs the level-0 representation from the base plus
// the first `cursor` augmentation entries, mirroring Algorithm 1's
// prolongate-and-add loop: coarser levels are fully applied before finer
// ones, and the result is interpolated up to the original grid.
func (h *Hierarchy) Recompose(cursor int) *tensor.Tensor {
	pos, take := h.split(cursor)
	r := h.base // read-only until the first Prolongate replaces it
	d := h.opts.Decimation
	for i, lvl := range h.order {
		r = Prolongate(r, h.levelDims[lvl], d)
		n := 0 // a level past the cursor's zone takes nothing
		if i < pos {
			n = len(h.augs[lvl].val)
		} else if i == pos {
			n = take
		}
		// A level names each point at most once (extractEntries emits
		// ascending indices, Decode rejects a repeat), so the chunks write
		// disjoint points and each point takes its one add.
		data, idx, val := r.Data(), h.augs[lvl].idx[:n], h.augs[lvl].val[:n]
		par.For(n, func(lo, hi int) {
			for k, ix := range idx[lo:hi] {
				data[ix] += val[lo+k]
			}
		})
	}
	if r == h.base {
		r = r.Clone() // the caller owns what it gets
	}
	return r
}

// Achieved measures the accuracy (under the configured metric) of the
// reconstruction at `cursor` against the original data.
func (h *Hierarchy) Achieved(orig *tensor.Tensor, cursor int) float64 {
	rec := h.Recompose(cursor)
	return errmetric.Measure(h.opts.Metric, orig.Data(), rec.Data())
}
