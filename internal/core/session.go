package core

import (
	"fmt"
	"math"

	"tango/internal/abplot"
	"tango/internal/blkio"
	"tango/internal/cache"
	"tango/internal/container"
	"tango/internal/dftestim"
	"tango/internal/errmetric"
	"tango/internal/refactor"
	"tango/internal/resil"
	"tango/internal/sim"
	"tango/internal/staging"
	"tango/internal/tokenctl"
	"tango/internal/trace"
	"tango/internal/weightfn"
)

const (
	regimeTol         = 0.5 // relative forecast error that counts as a misprediction
	regimeRun         = 4   // consecutive mispredicted steps that force a refit (runStep)
	prefetchLookahead = 2   // future steps of planned cursors the prefetch target covers
	bucketChunkSteps  = 64  // steps of BucketStat records one arena refill covers (runStep)
)

// BucketStat records the retrieval of one augmentation bucket Aug_{ε_m}:
// its accuracy level, cursor range, the blkio weight in force (0 when the
// policy does not adjust weights), and its start time and duration. The
// Fig 13 latency and Fig 15 weight-timeline experiments read these.
type BucketStat struct {
	Bound    float64 // accuracy level being elevated toward (NaN if none)
	From, To int
	Weight   int // 0 = weight not adjusted (default share)
	Start    float64
	Elapsed  float64
}

// StepStats records one analysis step.
type StepStats struct {
	Step      int
	Start     float64
	IOTime    float64 // total retrieval time (base + augmentation + probe)
	BaseTime  float64 // time to retrieve the base representation
	Bytes     float64 // total bytes retrieved
	SlowBW    float64 // measured capacity-tier bandwidth sample (B/s)
	Predicted float64 // estimator prediction used (0 before the model is ready)
	Degree    float64 // abplot degree applied (1 when not adapting)
	Cursor    int     // augmentation entries retrieved (achieved, not planned)
	Retries   int     // read requests retried after transient errors
	Degraded  bool    // optional augmentation shed after exhausting retries
	Buckets   []BucketStat

	// Fast-tier cache effect on this step (zero without a cache).
	CacheHits     int     // segment reads served at least partly from cache
	CacheMisses   int     // segment reads that touched the home tier
	CacheHitBytes float64 // bytes served from the cache device
}

// TimeToBound returns the elapsed time from step start until the
// retrieval had covered rung entries of the augmentation stream — the
// cursor of the accuracy being asked about (Hierarchy.CursorForBound):
// the base read time when the base alone satisfies the bound, otherwise
// the completion time of the bucket whose range reaches the rung, or NaN
// if the step never got there. This is Fig 13's "latency to retrieve the
// augmentation that elevates the accuracy to ε".
func (st StepStats) TimeToBound(rung int) float64 {
	if rung == 0 {
		return st.BaseTime
	}
	for _, b := range st.Buckets {
		if b.To >= rung {
			return b.Start + b.Elapsed - st.Start
		}
	}
	return math.NaN()
}

// Session runs one data-analytics container under a policy over a staged
// hierarchy.
type Session struct {
	Name   string
	Config Config

	store *staging.Store
	wf    *weightfn.Func // the policy's bucket pricing (cardinality only for StorageOnly)
	est   *dftestim.Estimator

	stats    []StepStats
	bktBuf   []bucket     // buckets' scratch, reused every step
	whole    [1]bucket    // the one bucket of a policy that retrieves everything
	bktArena []BucketStat // chunk the steps' retained Buckets are carved from
	cont     *container.Container
	stopped  bool
	finished bool // set when the step loop exits (stops the prefetcher)

	cache *cache.Cache
	pf    *cache.Prefetcher

	regimeStreak  int  // consecutive mispredicted steps (regime detector)
	weightPending bool // a weight write failed; re-apply on next success

	tb *tokenctl.Bucket // this session's bucket (nil without Config.Tokens)
}

// NewSession validates the configuration against the staged hierarchy and
// calibrates the weight function from the hierarchy's ladder (§III-C: the
// extreme cardinality/accuracy/priority corners map onto the container
// weight range).
func NewSession(name string, store *staging.Store, cfg Config) (*Session, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	h := store.Hierarchy()
	if cfg.ErrorControl {
		if _, err := h.CursorForBound(cfg.Bound); err != nil {
			return nil, fmt.Errorf("core: prescribed bound: %w", err)
		}
	}
	wf, err := calibrate(h, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Policy == StorageOnly {
		// StorageOnly prices the retrieval by size alone (the paper's
		// "weight set proportionally according to the augmentation size",
		// equal to cross-layer with cardinality only — Fig 13 note).
		wf.DisablePriority()
		wf.DisableAccuracy()
	}
	est := dftestim.NewEstimator()
	est.ThreshFrac = threshFrac
	est.Window = cfg.Window
	return &Session{Name: name, Config: cfg, store: store, wf: wf, est: est,
		stats: make([]StepStats, 0, cfg.Steps)}, nil
}

// calibrate solves the weight function's (k2, b2) from the hierarchy.
func calibrate(h *refactor.Hierarchy, cfg Config) (*weightfn.Func, error) {
	rungs := h.Rungs()
	bounds := h.Opts().Bounds
	cal := weightfn.Calibration{
		Metric:      h.Opts().Metric,
		MaxPriority: weightfn.PriorityHigh,
		MinPriority: weightfn.PriorityLow,
	}
	if len(bounds) > 0 {
		cal.LoosestBound = bounds[0]
		cal.TightestBound = bounds[len(bounds)-1]
	} else if h.Opts().Metric == errmetric.PSNR {
		cal.LoosestBound, cal.TightestBound = 20, 100
	} else {
		cal.LoosestBound, cal.TightestBound = 0.5, 1e-6
	}
	maxCard, minCard := 1.0, math.Inf(1)
	for _, r := range rungs {
		c := float64(r.Cardinality)
		if c > maxCard {
			maxCard = c
		}
		if c > 0 && c < minCard {
			minCard = c
		}
	}
	if total := float64(h.TotalEntries()); total > maxCard {
		maxCard = total
	}
	if math.IsInf(minCard, 1) {
		minCard = 1
	}
	cal.MaxCardinality = maxCard
	cal.MinCardinality = minCard
	wf, err := weightfn.New(cal)
	if err != nil {
		return nil, err
	}
	if cfg.DisablePriorityTerm {
		wf.DisablePriority()
	}
	if cfg.DisableAccuracyTerm || len(bounds) == 0 {
		// Without a ladder there is no accuracy level to price.
		wf.DisableAccuracy()
	}
	return wf, nil
}

// Stats returns the per-step records collected so far.
func (s *Session) Stats() []StepStats { return s.stats }

// Container returns the running container (nil before Launch).
func (s *Session) Container() *container.Container { return s.cont }

// Estimator exposes the session's bandwidth estimator (read-only use).
func (s *Session) Estimator() *dftestim.Estimator { return s.est }

// SetBound changes the prescribed error bound at runtime — the paper's
// exploratory-analytics scenario, where the accuracy a user needs becomes
// clear only during post-processing and can be elevated on the fly. The
// bound must be one of the hierarchy's ladder bounds; it takes effect at
// the next step. Must be called from sim context.
func (s *Session) SetBound(bound float64) error {
	if _, err := s.store.Hierarchy().CursorForBound(bound); err != nil {
		return err
	}
	s.Config.ErrorControl = true
	s.Config.Bound = bound
	if s.cache != nil {
		s.cache.SetMandatory(s.mandatoryCursor())
	}
	return nil
}

// Stop makes the session exit after the step currently in progress (the
// analysis campaign was cut short); the ephemeral staging is still
// released. Must be called from sim context (another process or event
// callback on the same engine).
func (s *Session) Stop() { s.stopped = true }

// Stopped reports whether Stop was called.
func (s *Session) Stopped() bool { return s.stopped }

// Launch starts the analytics container on node. The container executes
// Config.Steps steps, each period seconds apart (start-to-start), and
// records StepStats.
func (s *Session) Launch(node *container.Node) error {
	s.store.SetTrace(s.Config.Trace, s.Name)
	if rc := s.Config.Resil; rc != nil {
		// Route the store's guarded reads/probes and this session's
		// weight writes through the resilience control plane, and give
		// its hedging decision the session's demand forecast.
		s.store.SetResil(rc)
		rc.SetForecast(s.forecast)
		if s.Config.Allocator != nil {
			s.Config.Allocator.SetResil(rc)
		}
		if s.Config.Tokens != nil {
			s.Config.Tokens.SetResil(rc)
		}
	}
	cont, err := node.Launch(s.Name, func(c *container.Container, p *sim.Proc) {
		for step := 0; step < s.Config.Steps && !s.stopped; step++ {
			s.runStep(c, p, step)
		}
		s.finished = true
		if s.cache != nil {
			s.cache.Close()
		}
		s.store.Release()
		if s.Config.Allocator != nil {
			s.Config.Allocator.Detach(s.Name)
		}
		if s.Config.Tokens != nil {
			s.Config.Tokens.Detach(s.tb)
			s.tb = nil
		}
	})
	if err != nil {
		return err
	}
	s.cont = cont
	if s.Config.Allocator != nil {
		if err := s.Config.Allocator.Attach(s.Name, cont.Cgroup()); err != nil {
			return err
		}
	}
	if s.Config.Tokens != nil {
		tb, err := s.Config.Tokens.Attach(s.Name, cont.Cgroup())
		if err != nil {
			return err
		}
		s.tb = tb
	}
	if s.Config.Cache != nil {
		if err := s.launchPrefetcher(node); err != nil {
			return err
		}
	}
	return nil
}

// Cache exposes the fast-tier cache (nil unless Config.Cache is set and
// the session has been launched).
func (s *Session) Cache() *cache.Cache { return s.cache }

// Prefetcher exposes the background prefetcher (nil without a cache).
func (s *Session) Prefetcher() *cache.Prefetcher { return s.pf }

// launchPrefetcher builds the fast-tier cache over the session's store
// and starts the background prefetch container. The cache lives on the
// store's base (fastest) device; the prefetcher's decision inputs are
// wired to the session's estimator and planner so internal/cache stays
// free of controller dependencies.
func (s *Session) launchPrefetcher(node *container.Node) error {
	ccfg := *s.Config.Cache
	if ccfg.Trace == nil {
		ccfg.Trace = s.Config.Trace
	}
	cc := cache.New(s.store, s.store.BaseDevice(), ccfg)
	cc.SetMandatory(s.mandatoryCursor())
	s.store.SetCache(cc)
	s.cache = cc
	cont, err := node.Create(s.Name + "-prefetch")
	if err != nil {
		return err
	}
	pf := cache.NewPrefetcher(cc, prefetchInputs{s})
	pf.Resil = s.Config.Resil
	pf.Launch(cont)
	s.pf = pf
	return nil
}

// prefetchInputs is the session as the prefetcher's cache.Inputs. It holds
// only the session pointer, so boxing it allocates nothing.
type prefetchInputs struct{ s *Session }

func (in prefetchInputs) Forecast() (next, peak float64, ok bool) { return in.s.forecast() }
func (in prefetchInputs) Target() int                             { return in.s.prefetchTarget() }
func (in prefetchInputs) Done() bool                              { return in.s.finished }

func (in prefetchInputs) Observed() float64 {
	if len(in.s.stats) == 0 {
		return 0
	}
	return in.s.stats[len(in.s.stats)-1].SlowBW
}

// forecast reports the estimator's next-window demand prediction and the
// model peak; the prefetcher times its idle-window staging off it, and
// the resilience control plane uses the same signal for its hedging
// decision (hedge inside predicted-contended windows).
func (s *Session) forecast() (next, peak float64, ok bool) {
	if !s.est.Ready() {
		return 0, 0, false
	}
	for i, n := 0, s.est.ModelLen(); i < n; i++ {
		if v := s.est.ModelAt(i); v > peak {
			peak = v
		}
	}
	return s.est.PredictNext(), peak, true
}

// prefetchTarget is the global cursor the prefetcher should stage up to:
// the maximum cursor the controller would plan over the next
// prefetchLookahead steps, floored by the prescribed bound's rung.
func (s *Session) prefetchTarget() int {
	target := s.mandatoryCursor()
	if !s.est.Ready() {
		return target
	}
	n := s.est.Samples()
	for i := range prefetchLookahead {
		cur, _ := s.cursorFor(s.est.Predict(n + i))
		target = max(target, cur)
	}
	return target
}

// mandatoryCursor is the cursor the prescribed bound's rung requires.
func (s *Session) mandatoryCursor() int {
	if !s.Config.ErrorControl {
		return 0
	}
	cur, err := s.store.Hierarchy().CursorForBound(s.Config.Bound)
	if err != nil {
		panic(err) // validated at NewSession / SetBound
	}
	return cur
}

// planCursor implements lines 6–7 of Algorithm 1: the augmentation degree
// from the estimated bandwidth, floored by the prescribed bound.
//
// The estimate B̃W is the default-weight share. CrossLayer plans against
// the share its elevated weight will actually earn (the paper's "retrieve
// more augmentations assisted by a higher allocation in the storage
// layer"): boosting from the default weight to w turns a share
// 100/(100+W) into w/(w+W); against one default-weight competitor that is
// a factor 2w/(w+100). We use the previous step's applied average weight
// as w (1.0 boost before any weight has been applied).
func (s *Session) planCursor(step int) (cursor int, predicted, degree float64) {
	if !s.Config.Policy.adaptive() || !s.est.Ready() {
		// Early steps: retrieve fully while collecting history.
		return s.store.Hierarchy().TotalEntries(), 0, 1
	}
	predicted = s.est.Predict(step)
	cursor, degree = s.cursorFor(predicted)
	return max(cursor, s.mandatoryCursor()), predicted, degree
}

// cursorFor is Algorithm 1's line 6 for a forecast default-share
// bandwidth bw: the abplot degree of the bandwidth the session plans
// against, and the cursor of that augmentation fraction.
func (s *Session) cursorFor(bw float64) (cursor int, degree float64) {
	if s.Config.Policy.crossLayer() {
		bw *= s.weightBoost()
	}
	degree = abplot.Default().Degree(bw)
	return s.store.Hierarchy().CursorForFraction(degree), degree
}

// weightBoost estimates how much more bandwidth the session's elevated
// weight earns versus the default share, from the last step's applied
// weights.
func (s *Session) weightBoost() float64 {
	if len(s.stats) == 0 {
		return 1
	}
	last := s.stats[len(s.stats)-1]
	var sum float64
	var n int
	for _, b := range last.Buckets {
		if b.Weight > 0 {
			sum += float64(b.Weight)
			n++
		}
	}
	if n == 0 {
		return 1
	}
	w := sum / float64(n)
	return 2 * w / (w + blkio.DefaultWeight)
}

// buckets splits the retrieval [0, cursor) at rung boundaries, assigning
// each piece the accuracy level it is elevating toward (the paper's
// Aug_{ε_m} buckets).
type bucket struct {
	from, to int
	bound    float64
}

// buckets returns session scratch, valid until the next call.
//
//tango:hotpath
func (s *Session) buckets(cursor int) []bucket {
	h := s.store.Hierarchy()
	rungs := h.Rungs()
	out := s.bktBuf[:0]
	prev := 0
	tightest := math.NaN()
	for _, r := range rungs {
		tightest = r.Bound
		if r.Cursor > cursor {
			// The tail below lands inside this rung's range: it is
			// partial progress toward this rung's accuracy.
			if cursor > prev {
				out = append(out, bucket{prev, cursor, r.Bound})
				prev = cursor
			}
			break
		}
		if r.Cursor > prev {
			out = append(out, bucket{prev, r.Cursor, r.Bound})
			prev = r.Cursor
		}
	}
	if cursor > prev {
		b := tightest
		if math.IsNaN(b) {
			// No ladder: price the whole stream at a nominal bound.
			if h.Opts().Metric == errmetric.PSNR {
				b = 30
			} else {
				b = 0.01
			}
		}
		out = append(out, bucket{prev, cursor, b})
	}
	s.bktBuf = out
	return out
}

// applyWeight writes w to the container's cgroup, tolerating injected
// weight-write faults: a failed write leaves the previous weight in
// force (recorded as a recovery decision), and the first write that
// lands after a failure is recorded as the re-apply. Returns the weight
// actually in force. With the resilience control plane attached the
// write goes through the blkio.weight.apply policy instead: the breaker
// suppresses writes to a wedged cgroup until its half-open probe lands,
// and the control plane records the per-attempt timeline.
func (s *Session) applyWeight(c *container.Container, now float64, w int) int {
	adHoc := s.Config.Resil == nil // the control plane traces its own writes
	if !s.Config.Resil.Key(resil.KeyWeightApply).Weight(c.Cgroup(), w).OK {
		s.weightPending = true
		if adHoc {
			s.Config.Trace.Emit(now, s.Name, trace.KindRecover,
				"weight write failed (w=%d): continuing at w=%d, will re-apply", w, c.Cgroup().Weight())
		}
		return c.Cgroup().Weight()
	}
	if s.weightPending && adHoc {
		s.Config.Trace.Emit(now, s.Name, trace.KindRecover, "weight write recovered: re-applied w=%d", w)
	}
	s.weightPending = false
	return w
}

// setWeight routes a bucket's weight through the node-level allocator
// when configured (weight arbitration across concurrent sessions),
// through the decentralized token controller when that mode is selected,
// directly to the cgroup otherwise. It returns the weight in force.
func (s *Session) setWeight(c *container.Container, now float64, w int) int {
	switch {
	case s.Config.Allocator != nil:
		granted, err := s.Config.Allocator.Request(s.Name, w)
		if err != nil {
			panic(err) // attached at Launch
		}
		return granted
	case s.Config.Tokens != nil:
		return s.Config.Tokens.Request(s.tb, w)
	}
	return s.applyWeight(c, now, w)
}

func (s *Session) runStep(c *container.Container, p *sim.Proc, step int) {
	cfg := s.Config
	start := p.Now()
	st := StepStats{Step: step, Start: start}
	var cs0 cache.Stats
	if s.cache != nil {
		cs0 = s.cache.Stats()
	}

	cursor, predicted, degree := s.planCursor(step)
	st.Cursor, st.Predicted, st.Degree = cursor, predicted, degree

	// The step's retained Buckets are carved from a chunk that always has
	// room for one step's worth, so recording a bucket never allocates.
	if maxB := len(s.store.Hierarchy().Rungs()) + 1; cap(s.bktArena)-len(s.bktArena) < maxB {
		s.bktArena = make([]BucketStat, 0, maxB*min(bucketChunkSteps, cfg.Steps-step))
	}
	b0 := len(s.bktArena)
	var tier staging.TierStats
	mandatory := s.mandatoryCursor()

	// Line 1: retrieve the base representation from the fastest tier.
	// The base is always mandatory, so its guarded read retries through
	// transient faults rather than failing.
	baseStats, baseOut := s.store.ReadBaseGuarded(p, c.Cgroup())
	_, st.BaseTime = baseStats.Total()
	st.Retries += baseOut.Retries
	tier.Merge(baseStats)

	// Lines 9–13: bucket-wise retrieval. The adaptive policies read the
	// retrieval bucket by bucket; the others read it as one bucket.
	// Weight-adjusting policies price each bucket and set its weight
	// first (StorageOnly's one bucket by size alone). The sequential path
	// reads guarded: transient read errors retry with backoff, and
	// augmentation beyond the prescribed bound degrades (is shed) once the
	// retry budget is spent; a degraded step skips its remaining buckets,
	// which are above-bound augmentation too.
	bkts := s.whole[:]
	if cfg.Policy.adaptive() {
		bkts = s.buckets(cursor)
	} else {
		s.whole[0] = bucket{0, cursor, math.NaN()}
	}
	for _, b := range bkts {
		weight := 0
		if cfg.Policy.adjustsWeights() {
			weight = s.setWeight(c, p.Now(), s.wf.Weight(float64(b.to-b.from), b.bound, cfg.Priority))
		}
		bs := BucketStat{Bound: b.bound, From: b.from, To: b.to, Weight: weight, Start: p.Now()}
		if weight > 0 {
			cfg.Trace.Emit(p.Now(), s.Name, trace.KindWeight, "w=%d bound=%g card=%d", weight, b.bound, b.to-b.from)
		}
		if cfg.ParallelTierReads {
			tier.Merge(s.store.ReadRangeParallel(p, c.Cgroup(), b.from, b.to))
			st.Cursor = b.to
		} else {
			ts, out := s.store.ReadRangeGuarded(p, c.Cgroup(), b.from, b.to, mandatory)
			tier.Merge(ts)
			st.Retries += out.Retries
			st.Cursor = out.Cursor
			st.Degraded = out.Degraded
		}
		bs.Elapsed = p.Now() - bs.Start
		s.bktArena = append(s.bktArena, bs)
		cfg.Trace.Emit(p.Now(), s.Name, trace.KindBucket, "bound=%g entries=[%d,%d) took=%.3fs", b.bound, b.from, b.to, bs.Elapsed)
		if st.Degraded {
			break
		}
	}
	// Feed the estimator with the capacity-tier bandwidth at the DEFAULT
	// weight share — the quantity abplot's BW_low/BW_high thresholds
	// describe. Policies that boost their weight perceive inflated
	// bandwidth during their own reads, so they revert the weight to the
	// default outside the retrieval window and sample via a small probe
	// read issued after that. Policies that never adjust weights sample
	// from their retrieval directly (probing only when the step barely
	// touched the capacity tier).
	if cfg.Policy.adjustsWeights() {
		switch {
		case cfg.Allocator != nil:
			cfg.Allocator.Release(s.Name)
		case cfg.Tokens != nil:
			cfg.Tokens.Release(s.tb)
		default:
			s.applyWeight(c, p.Now(), blkio.DefaultWeight)
		}
		pt := s.store.Probe(p, c.Cgroup(), probeBytes)
		bytes, elapsed := pt.Total()
		tier.Merge(pt)
		if elapsed > 0 {
			st.SlowBW = bytes / elapsed
		}
	} else {
		slow := s.store.SlowestDevice()
		if tier.BytesOn(slow) < probeBytes {
			tier.Merge(s.store.Probe(p, c.Cgroup(), probeBytes))
		}
		if slowBytes, slowTime := tier.BytesOn(slow), tier.TimeOn(slow); slowTime > 0 && slowBytes > 0 {
			st.SlowBW = slowBytes / slowTime
		}
	}
	if st.SlowBW > 0 {
		s.est.Observe(st.SlowBW)
	} else {
		// Nothing measured: repeat the last sample to keep step indexing
		// aligned (one sample per step).
		last := 0.0
		if n := s.est.Samples(); n > 0 && len(s.stats) > 0 {
			last = s.stats[len(s.stats)-1].SlowBW
		}
		st.SlowBW = last
		s.est.Observe(last)
	}
	refitted := false
	if (step+1)%cfg.RefitEvery == 0 && s.est.Samples() >= 4 {
		if err := s.est.Fit(); err != nil {
			panic(err) // unreachable: sample count checked
		}
		cfg.Trace.Emit(p.Now(), s.Name, trace.KindRefit, "samples=%d window=%d thresh=%.2f", s.est.Samples(), cfg.Window, threshFrac)
		refitted = true
		s.regimeStreak = 0
	}
	// Regime-change detection: a model fit against a vanished
	// interference regime (a collapsed device, churned competitors)
	// mispredicts persistently until the next periodic refit. When the
	// relative error stays above regimeTol for regimeRun consecutive
	// steps, refit now instead of waiting out RefitEvery.
	if !refitted && st.Predicted > 0 && st.SlowBW > 0 {
		relErr := math.Abs(st.Predicted-st.SlowBW) / math.Max(st.Predicted, st.SlowBW)
		if relErr > regimeTol {
			s.regimeStreak++
		} else {
			s.regimeStreak = 0
		}
		if s.regimeStreak >= regimeRun && s.est.Samples() >= 4 {
			if err := s.est.Fit(); err != nil {
				panic(err) // unreachable: sample count checked
			}
			cfg.Trace.Emit(p.Now(), s.Name, trace.KindRefit,
				"regime change: relerr=%.2f for %d steps, refit (samples=%d)", relErr, s.regimeStreak, s.est.Samples())
			s.regimeStreak = 0
		}
	}

	// Fold the step's cache effect into the record and let the cache
	// update its per-run reuse statistics.
	if s.cache != nil {
		cs := s.cache.Stats()
		st.CacheHits = cs.Hits - cs0.Hits
		st.CacheMisses = cs.Misses - cs0.Misses
		st.CacheHitBytes = cs.HitBytes - cs0.HitBytes
		s.cache.EndStep()
	}

	// IOTime is wall-clock retrieval time (base + buckets + probe). For
	// serial retrieval it equals the sum of device times; with parallel
	// tier reads the overlapped portion counts once.
	st.Bytes, _ = tier.Total()
	st.IOTime = p.Now() - start
	st.Buckets = s.bktArena[b0:len(s.bktArena):len(s.bktArena)]
	s.stats = append(s.stats, st)
	cfg.Trace.Emit(p.Now(), s.Name, trace.KindStep, "step=%d io=%.3fs bytes=%.0f cursor=%d pred=%.0f degree=%.2f",
		step, st.IOTime, st.Bytes, st.Cursor, st.Predicted, st.Degree)

	// Compute/render phase: the remainder of the period.
	if wait := period - (p.Now() - start); wait > 0 {
		p.Sleep(wait)
	}
}
