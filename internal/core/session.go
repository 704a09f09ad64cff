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
	regimeRun         = 4   // consecutive mispredicted steps that force a refit (record)
	prefetchLookahead = 2   // future steps of planned cursors the prefetch target covers
	bucketChunkSteps  = 64  // steps of BucketStat records one arena refill covers (beginStep)
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
	bktBuf   []bucket     // the step's buckets: room for one per rung and the tail
	bktArena []BucketStat // chunk the steps' retained Buckets are carved from
	eng      *sim.Engine
	cont     *container.Container
	finished bool // set when the last step has ended (stops the prefetcher)

	// The step in flight (Fire), number len(stats): where it stands, its
	// record so far, and the read it waits on.
	phase     stepPhase
	cur       *StepStats // its record, in the slot past the end of stats
	b0        int        // the step's first bucket in bktArena; the last is the one being read
	tier      staging.TierStats
	mandatory int
	bi        int // the bucket being read
	rd        staging.Op

	cache *cache.Cache
	pf    *cache.Prefetcher

	rung         int // the prescribed bound's cursor; 0 without error control
	regimeStreak int // consecutive mispredicted steps (regime detector)

	rc *resil.Controller // Config.Resil, or its node's adhoc controller (Launch)
	tb *tokenctl.Bucket  // this session's bucket (nil without Config.Tokens)
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
	rung := 0
	if cfg.ErrorControl {
		var err error
		if rung, err = h.CursorForBound(cfg.Bound); err != nil {
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
	return &Session{Name: name, Config: cfg, store: store, wf: wf, est: est, rung: rung,
		stats: make([]StepStats, 0, cfg.Steps), bktBuf: make([]bucket, 0, len(h.Rungs())+1)}, nil
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
	rung, err := s.store.Hierarchy().CursorForBound(bound)
	if err != nil {
		return err
	}
	s.Config.ErrorControl = true
	s.Config.Bound = bound
	s.rung = rung
	if s.cache != nil {
		s.cache.SetMandatory(rung)
	}
	return nil
}

// Launch starts the analytics container on node. The container executes
// Config.Steps steps, each period seconds apart (start-to-start), and
// records StepStats. The session is its own engine callback: Launch arms
// the first step once its containers and weight-control entry exist, so
// a failed Launch leaves nothing attached and nothing to run.
func (s *Session) Launch(node *container.Node) error {
	s.attachResil(node)
	cont, err := node.Create(s.Name)
	var pfCont *container.Container
	if err == nil && s.Config.Cache != nil {
		pfCont, err = node.Create(s.Name + "-prefetch")
	}
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
	s.eng = node.Engine()
	s.eng.AtCall(s.eng.Now(), s)
	if pfCont != nil {
		s.launchPrefetcher(pfCont)
	}
	return nil
}

// attachResil routes the session's reads and weight writes through
// Config.Resil, or the node's adhoc controller, and gives a given
// controller's hedging the session's forecast (adhoc does not hedge).
func (s *Session) attachResil(node *container.Node) {
	s.store.SetTrace(s.Config.Trace, s.Name)
	s.rc = s.Config.Resil
	if s.rc == nil {
		s.rc = node.Adhoc(s.Config.Trace)
	} else {
		s.rc.SetForecast(s.forecast)
	}
	s.store.SetResil(s.rc)
	if s.Config.Allocator != nil {
		s.Config.Allocator.SetResil(s.rc)
	}
	if s.Config.Tokens != nil {
		s.Config.Tokens.SetResil(s.rc)
	}
}

// Cache exposes the fast-tier cache (nil unless Config.Cache is set and
// the session has been launched).
func (s *Session) Cache() *cache.Cache { return s.cache }

// Prefetcher exposes the background prefetcher (nil without a cache).
func (s *Session) Prefetcher() *cache.Prefetcher { return s.pf }

// launchPrefetcher builds the fast-tier cache over the session's store
// and starts the background prefetcher in cont. The cache lives on the
// store's base (fastest) device; the prefetcher's decision inputs are
// wired to the session's estimator and planner so internal/cache stays
// free of controller dependencies.
func (s *Session) launchPrefetcher(cont *container.Container) {
	ccfg := *s.Config.Cache
	if ccfg.Trace == nil {
		ccfg.Trace = s.Config.Trace
	}
	cc := cache.New(s.store, s.store.BaseDevice(), ccfg)
	cc.SetMandatory(s.mandatoryCursor())
	s.store.SetCache(cc)
	s.cache = cc
	pf := cache.NewPrefetcher(cc, prefetchInputs{s})
	pf.Resil = s.rc
	pf.Launch(cont)
	s.pf = pf
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

// mandatoryCursor is the cursor the prescribed bound's rung requires,
// found when NewSession or SetBound validated the bound.
func (s *Session) mandatoryCursor() int { return s.rung }

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

// applyWeight writes w to the container's cgroup through the session
// controller's blkio.weight.apply key, tolerating injected weight-write
// faults: a failed (or, under a breaker, suppressed) write leaves the
// previous weight in force, and the controller records it; the next
// write is the re-apply. Returns the weight actually in force.
func (s *Session) applyWeight(c *container.Container, w int) int {
	if !s.rc.Key(resil.KeyWeightApply).Weight(c.Cgroup(), w).OK {
		return c.Cgroup().Weight()
	}
	return w
}

// setWeight routes a bucket's weight through the node-level allocator
// when configured (weight arbitration across concurrent sessions),
// through the decentralized token controller when that mode is selected,
// directly to the cgroup otherwise. It returns the weight in force.
func (s *Session) setWeight(c *container.Container, w int) int {
	switch {
	case s.Config.Allocator != nil:
		return s.Config.Allocator.MustRequest(s.Name, w) // attached at Launch
	case s.Config.Tokens != nil:
		return s.Config.Tokens.Request(s.tb, w)
	}
	return s.applyWeight(c, w)
}

// stepPhase is where a step stands: what Fire does next.
type stepPhase uint8

const (
	phaseStart      stepPhase = iota // begin a step, or past the last one end the session
	phaseBase                        // the base read has ended
	phaseBucket                      // weight and read the next bucket
	phaseBucketRead                  // a bucket's read has ended
	phaseProbe                       // revert the weight and probe, if the step needs a sample
	phaseProbed                      // the probe has ended
	phaseRecord                      // sample, refit and record; then the period wait
)

// OpDone is the store read the step waits on ending.
func (s *Session) OpDone() { s.Fire() }

// Fire carries the step loop on from where it stands — a step's start,
// from Launch's event or the period wait's, or a read that ended —
// through every read that ends inside its call, until a read is in
// flight or the period wait is armed. It does at each instant what the
// loop did when it ran as a process, which blocked at the same reads
// and waits.
func (s *Session) Fire() {
	cfg := &s.Config
	c := s.cont
	for {
		switch s.phase {
		case phaseStart:
			if len(s.stats) >= cfg.Steps {
				s.finish()
				return
			}
			s.beginStep()
			// Line 1: retrieve the base representation from the
			// fastest tier. The base is always mandatory, so its
			// guarded read retries through transient faults rather
			// than failing.
			s.phase = phaseBase
			if s.rd.ReadBase(s.store, c.Cgroup(), s) {
				return
			}
		case phaseBase:
			_, s.cur.BaseTime = s.rd.TS.Total()
			s.cur.Retries += s.rd.Out.Retries
			s.tier.Merge(s.rd.TS)
			s.phase = phaseBucket
		case phaseBucket:
			// Lines 9–13: bucket-wise retrieval. Weight-adjusting
			// policies price each bucket and set its weight first
			// (StorageOnly's one bucket by size alone). The sequential
			// path reads guarded: transient read errors retry with
			// backoff, and augmentation beyond the prescribed bound
			// degrades (is shed) once the retry budget is spent; a
			// degraded step skips its remaining buckets, which are
			// above-bound augmentation too.
			if s.bi == len(s.bktBuf) {
				s.phase = phaseProbe
				continue
			}
			b := s.bktBuf[s.bi]
			now := s.eng.Now()
			weight := 0
			if cfg.Policy.adjustsWeights() {
				weight = s.setWeight(c, s.wf.Weight(float64(b.to-b.from), b.bound, cfg.Priority))
			}
			s.bktArena = append(s.bktArena, BucketStat{Bound: b.bound, From: b.from, To: b.to, Weight: weight, Start: now})
			if weight > 0 {
				cfg.Trace.Emit(now, s.Name, trace.KindWeight, "w=%d bound=%g card=%d", weight, b.bound, b.to-b.from)
			}
			s.phase = phaseBucketRead
			if cfg.ParallelTierReads {
				if s.rd.ReadRangeParallel(s.store, c.Cgroup(), b.from, b.to, s) {
					return
				}
			} else if s.rd.ReadRange(s.store, c.Cgroup(), b.from, b.to, s.mandatory, s) {
				return
			}
		case phaseBucketRead:
			bs := &s.bktArena[len(s.bktArena)-1]
			s.tier.Merge(s.rd.TS)
			if cfg.ParallelTierReads {
				s.cur.Cursor = bs.To
			} else {
				s.cur.Retries += s.rd.Out.Retries
				s.cur.Cursor = s.rd.Out.Cursor
				s.cur.Degraded = s.rd.Out.Degraded
			}
			now := s.eng.Now()
			bs.Elapsed = now - bs.Start
			cfg.Trace.Emit(now, s.Name, trace.KindBucket, "bound=%g entries=[%d,%d) took=%.3fs", bs.Bound, bs.From, bs.To, bs.Elapsed)
			s.bi++
			if s.cur.Degraded {
				s.bi = len(s.bktBuf)
			}
			s.phase = phaseBucket
		case phaseProbe:
			// Feed the estimator with the capacity-tier bandwidth at the
			// DEFAULT weight share — the quantity abplot's
			// BW_low/BW_high thresholds describe. Policies that boost
			// their weight perceive inflated bandwidth during their own
			// reads, so they revert the weight to the default outside
			// the retrieval window and sample via a small probe read
			// issued after that. Policies that never adjust weights
			// sample from their retrieval directly (probing only when
			// the step barely touched the capacity tier).
			if cfg.Policy.adjustsWeights() {
				switch {
				case cfg.Allocator != nil:
					cfg.Allocator.Release(s.Name)
				case cfg.Tokens != nil:
					cfg.Tokens.Release(s.tb)
				default:
					s.applyWeight(c, blkio.DefaultWeight)
				}
			} else if s.tier.BytesOn(s.store.SlowestDevice()) >= probeBytes {
				s.phase = phaseRecord
				continue
			}
			s.phase = phaseProbed
			if s.rd.Probe(s.store, c.Cgroup(), probeBytes, s) {
				return
			}
		case phaseProbed:
			bytes, elapsed := s.rd.TS.Total()
			s.tier.Merge(s.rd.TS)
			if cfg.Policy.adjustsWeights() && elapsed > 0 {
				s.cur.SlowBW = bytes / elapsed
			}
			s.phase = phaseRecord
		case phaseRecord:
			s.record()
			// Compute/render phase: the remainder of the period.
			s.phase = phaseStart
			now := s.eng.Now()
			if wait := period - (now - s.cur.Start); wait > 0 {
				s.eng.AtCall(now+wait, s)
				return
			}
		}
	}
}

// beginStep plans a step: its record, the cursor (lines 6–7 of Algorithm
// 1) and the buckets that retrieve it.
func (s *Session) beginStep() {
	// The record is written in place and joins stats when the step ends.
	n := len(s.stats)
	if n == cap(s.stats) {
		s.stats = append(s.stats, StepStats{})[:n]
	}
	s.cur = &s.stats[:n+1][n]
	*s.cur = StepStats{Step: n, Start: s.eng.Now()}
	if s.cache != nil {
		// The cache's counters when the step began, until record takes
		// the difference.
		cs := s.cache.Stats()
		s.cur.CacheHits, s.cur.CacheMisses, s.cur.CacheHitBytes = cs.Hits, cs.Misses, cs.HitBytes
	}
	cursor, predicted, degree := s.planCursor(n)
	s.cur.Cursor, s.cur.Predicted, s.cur.Degree = cursor, predicted, degree

	// The step's retained Buckets are carved from a chunk that always has
	// room for one step's worth, so recording a bucket never allocates;
	// each is recorded when its read begins.
	if maxB := len(s.store.Hierarchy().Rungs()) + 1; cap(s.bktArena)-len(s.bktArena) < maxB {
		s.bktArena = make([]BucketStat, 0, maxB*min(bucketChunkSteps, s.Config.Steps-n))
	}
	s.b0 = len(s.bktArena)
	s.tier = staging.TierStats{}
	s.mandatory = s.mandatoryCursor()
	// The adaptive policies read the retrieval bucket by bucket; the
	// others read it as one bucket.
	if s.Config.Policy.adaptive() {
		s.buckets(cursor)
	} else {
		s.bktBuf = append(s.bktBuf[:0], bucket{0, cursor, math.NaN()})
	}
	s.bi = 0
}

// record ends a step: the bandwidth sample and the estimator's refits,
// the cache's share, and the step's record.
func (s *Session) record() {
	cfg := &s.Config
	st := s.cur
	now := s.eng.Now()
	if !cfg.Policy.adjustsWeights() {
		slow := s.store.SlowestDevice()
		if slowBytes, slowTime := s.tier.BytesOn(slow), s.tier.TimeOn(slow); slowTime > 0 && slowBytes > 0 {
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
	step := len(s.stats)
	if (step+1)%cfg.RefitEvery == 0 && s.est.Samples() >= 4 {
		if err := s.est.Fit(); err != nil {
			panic(err) // unreachable: sample count checked
		}
		cfg.Trace.Emit(now, s.Name, trace.KindRefit, "samples=%d window=%d thresh=%.2f", s.est.Samples(), cfg.Window, threshFrac)
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
			cfg.Trace.Emit(now, s.Name, trace.KindRefit,
				"regime change: relerr=%.2f for %d steps, refit (samples=%d)", relErr, s.regimeStreak, s.est.Samples())
			s.regimeStreak = 0
		}
	}

	// Fold the step's cache effect into the record and let the cache
	// update its per-run reuse statistics.
	if s.cache != nil {
		cs := s.cache.Stats()
		st.CacheHits = cs.Hits - st.CacheHits
		st.CacheMisses = cs.Misses - st.CacheMisses
		st.CacheHitBytes = cs.HitBytes - st.CacheHitBytes
		s.cache.EndStep()
	}

	// IOTime is wall-clock retrieval time (base + buckets + probe). For
	// serial retrieval it equals the sum of device times; with parallel
	// tier reads the overlapped portion counts once.
	st.Bytes, _ = s.tier.Total()
	st.IOTime = now - st.Start
	st.Buckets = s.bktArena[s.b0:len(s.bktArena):len(s.bktArena)]
	s.stats = s.stats[:len(s.stats)+1]
	cfg.Trace.Emit(now, s.Name, trace.KindStep, "step=%d io=%.3fs bytes=%.0f cursor=%d pred=%.0f degree=%.2f",
		step, st.IOTime, st.Bytes, st.Cursor, st.Predicted, st.Degree)
}

// finish ends the session after its last step: the prefetcher stops, the
// ephemeral staging is released and the weight controller lets go.
func (s *Session) finish() {
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
}
