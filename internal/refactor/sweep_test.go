package refactor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"tango/internal/analytics"
	"tango/internal/errmetric"
	"tango/internal/par"
	"tango/internal/tensor"
)

// referenceLadder is the pre-sweep ladder construction, kept verbatim as
// the differential oracle: per-bound binary search over exact Achieved
// measures, with the coarse-step re-verify for non-monotone wobble. The
// sweep must reproduce its rungs bit for bit.
func referenceLadder(h *Hierarchy, orig *tensor.Tensor) ([]Rung, error) {
	var rungs []Rung
	push := func(bound, achieved float64, cursor, prevCursor int) {
		rungs = append(rungs, Rung{
			Bound:       bound,
			Achieved:    achieved,
			Cursor:      cursor,
			Cardinality: cursor - prevCursor,
			Bytes:       h.BytesForRange(prevCursor, cursor),
			Level:       h.LevelOfCursor(cursor),
		})
	}
	prevCursor := 0
	total := h.TotalEntries()
	for _, bound := range h.opts.Bounds {
		lo, hi := prevCursor, total
		if acc := h.Achieved(orig, lo); h.opts.Metric.Satisfies(acc, bound) {
			push(bound, acc, lo, prevCursor)
			prevCursor = lo
			continue
		}
		for lo < hi {
			mid := (lo + hi) / 2
			if h.opts.Metric.Satisfies(h.Achieved(orig, mid), bound) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		cursor := lo
		step := max(1, total/256)
		acc := h.Achieved(orig, cursor)
		for !h.opts.Metric.Satisfies(acc, bound) && cursor < total {
			cursor = min(cursor+step, total)
			acc = h.Achieved(orig, cursor)
		}
		if !h.opts.Metric.Satisfies(acc, bound) {
			return nil, fmt.Errorf("bound %v unreachable (achieves %v)", bound, acc)
		}
		push(bound, acc, cursor, prevCursor)
		prevCursor = cursor
	}
	return rungs, nil
}

// achievedWith is Achieved with the reference statistics precomputed;
// bit-identical results, one fewer reference scan per probe.
func (h *Hierarchy) achievedWith(st errmetric.Stats, orig *tensor.Tensor, cursor int) float64 {
	rec := h.Recompose(cursor)
	return st.Measure(h.opts.Metric, orig.Data(), rec.Data())
}

// sweepCases spans the three applications, both metrics, and several
// bound ladders (including ones that land rungs in coarse-level zones).
func sweepCases() []struct {
	name string
	gen  func() *tensor.Tensor
	opts Options
} {
	apps := analytics.Apps()
	var cases []struct {
		name string
		gen  func() *tensor.Tensor
		opts Options
	}
	boundSets := []struct {
		tag    string
		metric errmetric.Kind
		bounds []float64
		levels int
	}{
		{"nrmse3", errmetric.NRMSE, []float64{1e-1, 1e-2, 1e-3}, 3},
		{"nrmse-loose", errmetric.NRMSE, []float64{0.5, 0.2}, 4},
		{"nrmse-tight", errmetric.NRMSE, []float64{1e-4}, 2},
		{"psnr3", errmetric.PSNR, []float64{20, 40, 60}, 3},
		{"psnr-deep", errmetric.PSNR, []float64{10, 30, 50, 70}, 4},
	}
	for _, app := range apps {
		app := app
		for _, bs := range boundSets {
			cases = append(cases, struct {
				name string
				gen  func() *tensor.Tensor
				opts Options
			}{
				name: app.Name + "/" + bs.tag,
				gen:  func() *tensor.Tensor { return app.Generate(129, 42) },
				opts: Options{Levels: bs.levels, Metric: bs.metric, Bounds: bs.bounds},
			})
		}
	}
	return cases
}

// TestSweepMatchesBinarySearch pins the tentpole's contract: the
// single-sweep ladder produces exactly the rungs the per-bound binary
// search produced — same cursors, same recorded accuracies (bitwise),
// same cardinalities, bytes, and levels.
func TestSweepMatchesBinarySearch(t *testing.T) {
	for _, tc := range sweepCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			orig := tc.gen()
			h, err := Decompose(orig, tc.opts)
			if err != nil {
				t.Fatalf("Decompose: %v", err)
			}
			want, err := referenceLadder(h, orig)
			if err != nil {
				t.Fatalf("referenceLadder: %v", err)
			}
			got := h.Rungs()
			if len(got) != len(want) {
				t.Fatalf("rung count %d, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("rung %d:\n got %+v\nwant %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestSweepBaseAccuracy pins the shared base-accuracy computation to the
// standalone exact measure.
func TestSweepBaseAccuracy(t *testing.T) {
	for _, tc := range sweepCases()[:3] {
		orig := tc.gen()
		h, err := Decompose(orig, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := h.Achieved(orig, 0); h.BaseAccuracy() != want {
			t.Errorf("%s: BaseAccuracy %v, want %v", tc.name, h.BaseAccuracy(), want)
		}
	}
}

// TestProberMatchesAchieved drives the stateful prober over random
// cursor sequences (jumps and ±1 runs across zone boundaries) and
// checks every probe bitwise against the full reconstruction.
func TestProberMatchesAchieved(t *testing.T) {
	apps := analytics.Apps()
	for _, app := range apps {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			orig := app.Generate(65, 7)
			h, err := Decompose(orig, Options{Levels: 3, Bounds: []float64{1e-1, 1e-3}})
			if err != nil {
				t.Fatal(err)
			}
			st := errmetric.NewStats(orig.Data())
			sw := h.runSweep(orig, st)
			pr := newProber(h, st, orig, sw.floors)
			total := h.TotalEntries()
			rng := rand.New(rand.NewSource(1))
			cursor := rng.Intn(total + 1)
			for i := 0; i < 200; i++ {
				switch rng.Intn(4) {
				case 0: // long jump
					cursor = rng.Intn(total + 1)
				case 1: // step down
					cursor = max(cursor-1, 0)
				default: // step up
					cursor = min(cursor+1, total)
				}
				got := pr.achieved(cursor)
				want := h.achievedWith(st, orig, cursor)
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("step %d cursor %d: prober %v, Achieved %v", i, cursor, got, want)
				}
			}
		})
	}
}

// TestProber3D exercises the support-recompute path on a rank-3 grid,
// where clamped edges and corner weights are hardest to get right.
func TestProber3D(t *testing.T) {
	orig := tensor.New(17, 17, 17)
	d := orig.Data()
	for i := range d {
		d[i] = math.Sin(float64(i)) * float64(i%13)
	}
	h, err := Decompose(orig, Options{Levels: 3, Bounds: []float64{1e-1, 1e-3}})
	if err != nil {
		t.Fatal(err)
	}
	st := errmetric.NewStats(orig.Data())
	sw := h.runSweep(orig, st)
	pr := newProber(h, st, orig, sw.floors)
	total := h.TotalEntries()
	for cursor := 0; cursor <= total; cursor += max(1, total/97) {
		got := pr.achieved(cursor)
		want := h.achievedWith(st, orig, cursor)
		if got != want {
			t.Fatalf("cursor %d: prober %v, Achieved %v", cursor, got, want)
		}
	}
	// Walk backward over a zone boundary: un-apply must restore exactly.
	for cursor := total; cursor >= 0; cursor -= max(1, total/53) {
		got := pr.achieved(cursor)
		want := h.achievedWith(st, orig, cursor)
		if got != want {
			t.Fatalf("backward cursor %d: prober %v, Achieved %v", cursor, got, want)
		}
	}
}

// TestEntryIndicesUniquePerLevel pins what the prober's un-apply rests
// on: a level's stream names each grid point at most once, so the floor
// at an entry's index is that entry's pre-apply value whatever else has
// been applied. extractEntries emits strictly ascending indices (chunked
// path included: 257² is above par.Threshold), and sorting only permutes.
func TestEntryIndicesUniquePerLevel(t *testing.T) {
	orig := smoothField(257, 3)
	coarse := Restrict(orig, 2)
	pro := Prolongate(coarse, orig.Dims(), 2)
	idx := extractEntries(orig.Data(), pro.Data()).idx
	if len(idx) < 40_000 {
		t.Fatalf("only %d entries: the field is not exercising the chunked path", len(idx))
	}
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			t.Fatalf("entry %d index %d after index %d: not strictly ascending", i, idx[i], idx[i-1])
		}
	}
	for _, noSort := range []bool{false, true} {
		h := mustDecompose(t, orig, Options{Levels: 4, NoSort: noSort})
		for lvl, aug := range h.augs {
			points := 1
			for _, d := range h.levelDims[lvl] {
				points *= d
			}
			seen := make([]bool, points)
			for _, ix := range aug.idx {
				if seen[ix] {
					t.Fatalf("NoSort=%v level %d: index %d occurs twice", noSort, lvl, ix)
				}
				seen[ix] = true
			}
		}
	}
}

// TestProberUnapplyRestoresFromFloor walks the prober backward and forward
// in strides of thousands of entries through all three zone kinds of a
// four-level 257² hierarchy (above par.Threshold, so every prolongation
// and measure is chunked) — the finest zone, where the coarse field is the
// reconstruction; the level-1 ("direct") zone one prolongation above it,
// both its support-recompute and its re-prolongate branch; and the chained
// zone above that — and compares the
// reconstruction itself, not only its accuracy, with Recompose bit for
// bit after every step.
func TestProberUnapplyRestoresFromFloor(t *testing.T) {
	orig := smoothField(257, 11)
	h := mustDecompose(t, orig, Options{Levels: 4, Bounds: []float64{1e-1}})
	st := errmetric.NewStats(orig.Data())
	sw := h.runSweep(orig, st)
	pr := newProber(h, st, orig, sw.floors)
	check := func(what string, cursor int) {
		t.Helper()
		got := pr.achieved(cursor)
		if want := h.achievedWith(st, orig, cursor); got != want {
			t.Fatalf("%s cursor %d: prober %v, Achieved %v", what, cursor, got, want)
		}
		want := h.Recompose(cursor).Data()
		for i, v := range pr.rec {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("%s cursor %d: point %d = %v (%#x), Recompose %v (%#x)", what, cursor, i,
					v, math.Float64bits(v), want[i], math.Float64bits(want[i]))
			}
		}
	}
	unapplied := 0
	lo := 0
	for pos, hi := range h.cum {
		n := hi - lo
		zone := fmt.Sprintf("zone %d (level %d, %d entries)", pos, h.order[pos], n)
		check(zone+" enter full", hi)
		// Down in uneven strides, partway back up, one stride long enough
		// for the direct zone to re-prolongate, then down to the floor:
		// a restore must be exact after applies and earlier restores alike.
		for _, frac := range []float64{0.93, 0.61, 0.6, 0.85, 0.15, 0.16, 0.05, 0} {
			c := lo + int(frac*float64(n))
			if c < pr.take+lo {
				unapplied += pr.take + lo - c
			}
			check(zone, c)
		}
		check(zone+" re-apply all", hi)
		lo = hi
	}
	if unapplied < 50_000 {
		t.Fatalf("the walk un-applied %d entries, want tens of thousands", unapplied)
	}
	// Leaving the finest zone and coming back must not see what the other
	// zones wrote into the shared level-0 field.
	total := h.TotalEntries()
	check("finest", total-1000)
	check("direct", h.cum[1]-500)
	check("finest again", total-3000)
	// The floors themselves are never written.
	for pos, f := range sw.floors {
		want := h.RecomposeAtLevel(h.cum[pos]-h.LevelEntries(h.order[pos]), h.order[pos]).Data()
		for i, v := range f.Data() {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("floor %d point %d changed under the prober: %v, want %v", pos, i, v, want[i])
			}
		}
	}
}

// TestExtractEntriesParallelMatchesSequential forces the chunked
// extraction path and compares it against the simple scan.
func TestExtractEntriesParallelMatchesSequential(t *testing.T) {
	n := 1 << 16 // above par.Threshold: multiple chunks
	fine := make([]float64, n)
	pd := make([]float64, n)
	rng := rand.New(rand.NewSource(11))
	for i := range fine {
		fine[i] = rng.Float64()
		if rng.Intn(3) == 0 {
			pd[i] = fine[i] // zero diff: must be skipped
		} else {
			pd[i] = rng.Float64()
		}
	}
	var want []entry
	for i, v := range fine {
		if diff := v - pd[i]; diff != 0 {
			want = append(want, entry{uint32(i), diff})
		}
	}
	sameEntries(t, "chunked extraction", extractEntries(fine, pd), want)
	// All-equal input returns nil columns, matching the sequential scan's nil.
	if e := extractEntries(fine, fine); e.idx != nil || e.val != nil {
		t.Errorf("expected nil for zero-diff input, got %d entries", len(e.val))
	}
	// Below par.Threshold the one chunk runs inline.
	k := slices.IndexFunc(want, func(e entry) bool { return e.idx >= 1000 })
	sameEntries(t, "one chunk", extractEntries(fine[:1000], pd[:1000]), want[:k])
}

// composedColumnsDense is the definition composedColumns' windowed
// evaluation must reproduce: a dense length-m vector per coarse node,
// prolongated whole at every level.
func (h *Hierarchy) composedColumnsDense(lvl, dim int) [][]wpt {
	d := h.opts.Decimation
	m := func(l int) int { return h.levelDims[l][dim] }
	cols := make([][]wpt, m(lvl))
	for j := range cols {
		w := make([]float64, m(lvl))
		w[j] = 1
		for l := lvl; l >= 1; l-- {
			nf, nc := m(l-1), m(l)
			fine := make([]float64, nf)
			for x := 0; x < nf; x++ {
				p := x / d
				f := float64(x-p*d) / float64(d)
				if p >= nc-1 {
					p, f = nc-1, 0
				}
				if f == 0 {
					fine[x] = w[p]
				} else {
					fine[x] = (1-f)*w[p] + f*w[p+1]
				}
			}
			w = fine
		}
		var col []wpt
		for x, v := range w {
			if v != 0 {
				col = append(col, wpt{x, v})
			}
		}
		cols[j] = col
	}
	return cols
}

// TestComposedColumnsMatchDense: same positions and bitwise the same
// weights, across decimations, clamped tails and single-node dimensions.
func TestComposedColumnsMatchDense(t *testing.T) {
	for _, dims := range [][]int{{129}, {100, 7}, {33, 1, 46}, {2, 65}} {
		for _, d := range []int{2, 3, 4} {
			h, err := Decompose(tensor.New(dims...), Options{Levels: 5, Decimation: d})
			if err != nil {
				t.Fatal(err)
			}
			for lvl := 1; lvl < h.Levels(); lvl++ {
				for dim := range dims {
					got, want := h.composedColumns(lvl, dim), h.composedColumnsDense(lvl, dim)
					if len(got) != len(want) {
						t.Fatalf("dims=%v d=%d lvl=%d dim=%d: %d columns, want %d", dims, d, lvl, dim, len(got), len(want))
					}
					for j := range want {
						if !slices.Equal(got[j], want[j]) {
							t.Fatalf("dims=%v d=%d lvl=%d dim=%d node %d:\n got %v\nwant %v", dims, d, lvl, dim, j, got[j], want[j])
						}
					}
				}
			}
		}
	}
}

// applyRecursive is the sweep's per-entry basis application as it stood
// before basisWalk — a closure recursing once per dimension — kept
// verbatim as the oracle.
func applyRecursive(errv []float64, sse, v float64, cols [][][]wpt, idx, strides0 []int) float64 {
	rank := len(cols)
	var apply func(dim, off int, w float64)
	apply = func(dim, off int, w float64) {
		if dim == rank {
			old := errv[off]
			nw := old - v*w
			sse += nw*nw - old*old
			errv[off] = nw
			return
		}
		for _, p := range cols[dim][idx[dim]] {
			apply(dim+1, off+p.pos*strides0[dim], w*p.w)
		}
	}
	apply(0, 0, 1)
	return sse
}

// TestBasisWalkMatchesRecursiveApply runs every coarse entry of rank-1,
// -2 and -3 hierarchies through basisWalk and through the recursion it
// replaced, from the same error field, and compares the SSE after every
// entry and the field after every level bit for bit. Four levels give
// both a one-step (level 1) and a chained (level 2) composition.
func TestBasisWalkMatchesRecursiveApply(t *testing.T) {
	for _, dims := range [][]int{{4097}, {129, 65}, {17, 9, 33}} {
		orig := tensor.New(dims...)
		for i := range orig.Data() {
			orig.Data()[i] = math.Sin(float64(i)*0.37) * float64(i%11)
		}
		h := mustDecompose(t, orig, Options{Levels: 4})
		strides := tensor.Strides(dims)
		walk := newBasisWalk(strides)
		idx := make([]int, len(dims))
		rng := rand.New(rand.NewSource(3))
		for lvl := 1; lvl < len(h.augs); lvl++ {
			cols := make([][][]wpt, len(dims))
			for dim := range cols {
				cols[dim] = h.composedColumns(lvl, dim)
			}
			want := make([]float64, orig.Len())
			for i := range want {
				want[i] = rng.NormFloat64()
			}
			got := slices.Clone(want)
			wantSSE, gotSSE := 0.5, 0.5
			for i, e := range h.augs[lvl].entries() {
				unravel(int(e.idx), h.levelDims[lvl], idx)
				wantSSE = applyRecursive(want, wantSSE, e.val, cols, idx, strides)
				for dim, j := range idx {
					walk.basis[dim] = cols[dim][j]
				}
				gotSSE = walk.apply(got, gotSSE, e.val)
				if math.Float64bits(gotSSE) != math.Float64bits(wantSSE) {
					t.Fatalf("dims=%v level %d entry %d: SSE %v, recursion %v", dims, lvl, i, gotSSE, wantSSE)
				}
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("dims=%v level %d point %d: %v, recursion %v", dims, lvl, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSweepMatchesBinarySearchAnyRank is TestSweepMatchesBinarySearch on
// rank-1 and rank-3 grids above par.Threshold, at one and two workers.
func TestSweepMatchesBinarySearchAnyRank(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, dims := range [][]int{{40_000}, {33, 35, 37}} {
		orig := tensor.New(dims...)
		for i := range orig.Data() {
			orig.Data()[i] = math.Sin(float64(i)*0.013) + 0.1*math.Cos(float64(i)*0.7)
		}
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			h := mustDecompose(t, orig, Options{Levels: 4, Bounds: []float64{1e-1, 1e-2, 1e-3}})
			want, err := referenceLadder(h, orig)
			if err != nil {
				t.Fatal(err)
			}
			if got := h.Rungs(); !slices.Equal(got, want) {
				t.Fatalf("dims=%v procs=%d:\n got %+v\nwant %+v", dims, procs, got, want)
			}
		}
	}
}

// runSweepRef is runSweep as it stood with an error field of its own
// (errv), re-anchored at every level boundary and updated entry by entry
// in stream order: the oracle the in-place sweep must match bit for bit.
func (h *Hierarchy) runSweepRef(orig *tensor.Tensor, st errmetric.Stats) sweepResult {
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

	errv := make([]float64, n)
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
		// Re-anchor err and SSE at the level boundary: the prolongated
		// floor is fixed for every cursor inside this level.
		sse = par.MapReduce(n, func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				e := ref[i] - fd[i]
				errv[i] = e
				s += e * e
			}
			return s
		}, func(a, b float64) float64 { return a + b })
		check()

		curData := cur.Data()
		if lvl == 0 {
			// Finest level: the basis is a single point — O(1) per entry.
			// Nothing prolongates after this zone, so cur itself needs no
			// update.
			for _, e := range h.augs[0].entries() {
				old := errv[e.idx]
				nw := old - e.val
				sse += nw*nw - old*old
				errv[e.idx] = nw
				cursor++
				check()
			}
			continue
		}

		cols := make([][][]wpt, rank)
		for dim := range cols {
			cols[dim] = h.composedColumns(lvl, dim)
		}
		cd := h.levelDims[lvl]
		for _, e := range h.augs[lvl].entries() {
			curData[e.idx] += e.val
			unravel(int(e.idx), cd, idx)
			for dim, j := range idx {
				walk.basis[dim] = cols[dim][j]
			}
			sse = walk.apply(errv, sse, e.val)
			cursor++
			check()
		}
	}
	return res
}

// TestSweepMatchesErrorFieldSweep compares runSweep with runSweepRef —
// candidates, baseAcc and every floor by Float64bits — over random
// hierarchies: ranks 1–3 (the larger grids above par.Threshold, so the
// re-anchor and the finest zone's gather are chunked), 2–5 levels, NoSort,
// both metrics with random ladders, constant and all-zero fields (zero
// range and zero peak) and fields of a few integer values (many equal
// magnitudes), at one and two workers.
func TestSweepMatchesErrorFieldSweep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(51))
	fields := []struct {
		name string
		fill func(i int) float64
	}{
		{"smooth", func(i int) float64 { return math.Sin(float64(i)*0.011) + 0.05*rng.NormFloat64() }},
		{"constant", func(int) float64 { return 3.25 }},
		{"zero", func(int) float64 { return 0 }},
		{"few-values", func(int) float64 { return float64(rng.Intn(5) - 2) }},
	}
	for _, dims := range [][]int{{40_000}, {97}, {201, 181}, {23, 19}, {33, 35, 37}, {9, 7, 5}} {
		for _, f := range fields {
			orig := tensor.New(dims...)
			for i := range orig.Data() {
				orig.Data()[i] = f.fill(i)
			}
			st := errmetric.NewStats(orig.Data())
			for trial := 0; trial < 3; trial++ {
				opts := Options{Levels: 2 + rng.Intn(4), NoSort: rng.Intn(2) == 0}
				h := mustDecompose(t, orig, opts)
				h.opts.Metric = errmetric.Kind(rng.Intn(2))
				h.opts.Bounds = nil
				for b := 0.5; b > 1e-7; b /= 1 + 9*rng.Float64() {
					if h.opts.Metric == errmetric.PSNR {
						h.opts.Bounds = append(h.opts.Bounds, -20*math.Log10(b))
					} else {
						h.opts.Bounds = append(h.opts.Bounds, b)
					}
				}
				name := fmt.Sprintf("dims=%v %s levels=%d NoSort=%v %s", dims, f.name, h.Levels(), opts.NoSort, h.opts.Metric)
				want := h.runSweepRef(orig, st)
				for _, procs := range []int{1, 2} {
					runtime.GOMAXPROCS(procs)
					got := h.runSweep(orig, st)
					if !slices.Equal(got.candidates, want.candidates) {
						t.Fatalf("%s procs=%d: candidates %v, want %v", name, procs, got.candidates, want.candidates)
					}
					if math.Float64bits(got.baseAcc) != math.Float64bits(want.baseAcc) {
						t.Fatalf("%s procs=%d: baseAcc %v, want %v", name, procs, got.baseAcc, want.baseAcc)
					}
					for pos, fl := range want.floors {
						for i, v := range fl.Data() {
							if g := got.floors[pos].Data()[i]; math.Float64bits(g) != math.Float64bits(v) {
								t.Fatalf("%s procs=%d: floor %d point %d = %v, want %v", name, procs, pos, i, g, v)
							}
						}
					}
				}
			}
		}
	}
}

// TestSweepKeepsNoErrorField: with Decompose's work field lent, runSweep
// allocates the finest floor it returns and the coarse zones' fields
// (1.5 level-0 fields at three levels), but no level-0 error field: under
// two level-0 fields in all, where keeping one made it 2.5.
func TestSweepKeepsNoErrorField(t *testing.T) {
	orig := smoothField(257, 2)
	h := mustDecompose(t, orig, Options{Levels: 3, Bounds: []float64{1e-2}})
	h.scratch = make([]float64, orig.Len())
	st := errmetric.NewStats(orig.Data())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.runSweep(orig, st)
	runtime.ReadMemStats(&after)
	field := uint64(8 * orig.Len())
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("runSweep allocated %d bytes, %.2f level-0 fields", got, float64(got)/float64(field))
	if got >= 2*field {
		t.Fatal("runSweep allocated a level-0 field beside its floors")
	}
}
