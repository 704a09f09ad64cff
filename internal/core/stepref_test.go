package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tango/internal/blkio"
	"tango/internal/cache"
	"tango/internal/container"
	"tango/internal/coordinator"
	"tango/internal/device"
	"tango/internal/fault"
	"tango/internal/refactor"
	"tango/internal/resil"
	"tango/internal/sim"
	"tango/internal/staging"
	"tango/internal/tokenctl"
	"tango/internal/trace"
	"tango/internal/workload"
)

// This file keeps the session step as it ran while it was a process —
// the step loop, and the blocking guarded, parallel and probe reads it
// called — as the reference TestStepMatchesProcessLoop holds the
// callback step to. The reads are rebuilt on the store's exported
// surface; refTier is staging.TierStats' arithmetic.

// refTier is a read's per-device bytes and time in first-appearance
// order, summed as TierStats sums them.
type refTier struct {
	devs         []*device.Device
	bytes, times []float64
}

func (t *refTier) add(d *device.Device, b, tm float64) {
	for i, x := range t.devs {
		if x == d {
			t.bytes[i] += b
			t.times[i] += tm
			return
		}
	}
	t.devs = append(t.devs, d)
	t.bytes = append(t.bytes, b)
	t.times = append(t.times, tm)
}

func (t *refTier) merge(o refTier) {
	for i, d := range o.devs {
		t.add(d, o.bytes[i], o.times[i])
	}
}

func (t *refTier) total() (b, tm float64) {
	for i := range t.devs {
		b += t.bytes[i]
		tm += t.times[i]
	}
	return b, tm
}

func (t *refTier) on(d *device.Device) (b, tm float64) {
	for i, x := range t.devs {
		if x == d {
			return t.bytes[i], t.times[i]
		}
	}
	return 0, 0
}

type refPart struct {
	dev     *device.Device
	entries int
	bytes   float64
}

// refParts splits a segment read across the session's cache and the
// level's home tier, as the store does.
func refParts(s *Session, seg refactor.Segment) (parts [2]refPart, n int) {
	st := s.store
	h := st.Hierarchy()
	home := st.DeviceForLevel(seg.Level)
	parts[0] = refPart{home, seg.End - seg.Start, float64(seg.Bytes) * st.Scale()}
	if s.cache == nil {
		return parts, 1
	}
	cdev, cached := s.cache.Serve(seg.Level, seg.Start, seg.End)
	if cached <= 0 || cdev == nil || cdev == home {
		return parts, 1
	}
	if cached >= parts[0].entries {
		parts[0].dev = cdev
		return parts, 1
	}
	mid := seg.Start + cached
	parts[0] = refPart{cdev, cached, float64(h.LevelBytes(seg.Level, seg.Start, mid)) * st.Scale()}
	parts[1] = refPart{home, seg.End - mid, float64(h.LevelBytes(seg.Level, mid, seg.End)) * st.Scale()}
	return parts, 2
}

// refRetryRead is the ad-hoc retry loop the adhoc catalog's read keys
// reproduce, tracing in their words as key.
func refRetryRead(s *Session, p *sim.Proc, dev *device.Device, cg *blkio.Cgroup, bytes float64, key string, bounded bool) (float64, int, bool) {
	start := p.Now()
	delay := 0.05
	retries := 0
	for attempt := 1; ; attempt++ {
		_, err := dev.TryReadCancel(p, cg, bytes, nil, 0)
		if err == nil {
			return p.Now() - start, retries, true
		}
		if bounded && attempt >= 4 {
			s.Config.Trace.Emit(p.Now(), "resil", trace.KindAttempt, "degrade key=%s target=%s attempts=%d: attempt limit reached", key, dev.Name(), attempt)
			return p.Now() - start, retries, false
		}
		retries++
		s.Config.Trace.Emit(p.Now(), "resil", trace.KindAttempt, "retry key=%s target=%s attempt=%d backoff=%.3gs timeout=%t", key, dev.Name(), attempt+1, delay, false)
		p.Sleep(delay)
		delay *= 2
		if delay > 5 {
			delay = 5
		}
	}
}

func refReadBaseGuarded(s *Session, p *sim.Proc, cg *blkio.Cgroup) (ts refTier, retries int) {
	st := s.store
	dev := st.BaseDevice()
	bytes := float64(st.Hierarchy().BaseBytes()) * st.Scale()
	if rc := s.Config.Resil; rc != nil {
		res := rc.Key(resil.KeyStagingReadBase).Read(p, dev, cg, bytes)
		ts.add(dev, res.Moved, res.Elapsed)
		return ts, res.Retries
	}
	el, retries, _ := refRetryRead(s, p, dev, cg, bytes, "adhoc.staging.read.base", false)
	ts.add(dev, bytes, el)
	return ts, retries
}

func refReadRangeGuarded(s *Session, p *sim.Proc, cg *blkio.Cgroup, from, to, mandatory int) (ts refTier, out staging.GuardedOutcome) {
	out.Cursor = from
	for _, seg := range s.store.Hierarchy().Segments(from, to) {
		home := s.store.DeviceForLevel(seg.Level)
		parts, n := refParts(s, seg)
		for _, part := range parts[:n] {
			needed := out.Cursor < mandatory
			var retries int
			var ok bool
			if s.Config.Resil != nil {
				retries, ok = refResilPart(s, p, cg, &ts, part, home, needed)
			} else {
				key := "adhoc.staging.read.optional"
				if needed {
					key = "adhoc.staging.read.capacity"
				}
				var el float64
				el, retries, ok = refRetryRead(s, p, part.dev, cg, part.bytes, key, !needed)
				ts.add(part.dev, part.bytes, el)
			}
			out.Retries += retries
			if !ok {
				out.Degraded = true
				s.Config.Trace.Emit(p.Now(), s.Name, trace.KindRecover, "degrade dev=%s cursor=%d of %d (fall back to lower augmentation)", part.dev.Name(), out.Cursor, to)
				return ts, out
			}
			out.Cursor += part.entries
		}
	}
	return ts, out
}

// refHedger blocks a process on a hedge race, woken by its last leg.
type refHedger struct {
	h       resil.Hedge
	p       *sim.Proc
	waiting bool
}

func (w *refHedger) TransferDone(*device.Token, error) {
	w.waiting = false
	w.p.Engine().Wake(w.p)
}

func refResilPart(s *Session, p *sim.Proc, cg *blkio.Cgroup, ts *refTier, part refPart, home *device.Device, needed bool) (int, bool) {
	rc := s.Config.Resil
	if part.dev != home {
		w := &refHedger{p: p, waiting: true}
		if w.h.Start(rc.Key(resil.KeyStagingReadHedge), part.dev, home, cg, part.bytes, w) {
			for w.waiting {
				p.Suspend()
			}
			if hr := w.h.Result(); hr.OK {
				winDev, loserDev := part.dev, home
				winMoved, loserMoved := hr.FastMoved, hr.SlowMoved
				if !hr.FastWon {
					winDev, loserDev = home, part.dev
					winMoved, loserMoved = hr.SlowMoved, hr.FastMoved
				}
				ts.add(winDev, winMoved, hr.Elapsed)
				if loserMoved > 0 {
					ts.add(loserDev, loserMoved, 0)
				}
				return 0, true
			}
		}
	}
	id := resil.KeyStagingReadOptional
	if needed {
		id = resil.KeyStagingReadCapacity
	}
	res := rc.Key(id).Read(p, part.dev, cg, part.bytes)
	ts.add(part.dev, res.Moved, res.Elapsed)
	return res.Retries, res.OK
}

// refReadRangeParallel is the parallel read with one reader process per
// tier, the caller suspended until the last one wakes it.
func refReadRangeParallel(s *Session, p *sim.Proc, cg *blkio.Cgroup, from, to int) (ts refTier) {
	type group struct {
		dev   *device.Device
		parts []refPart
		ts    refTier
	}
	var groups []*group
	for _, seg := range s.store.Hierarchy().Segments(from, to) {
		parts, n := refParts(s, seg)
		for _, part := range parts[:n] {
			i := 0
			for i < len(groups) && groups[i].dev != part.dev {
				i++
			}
			if i == len(groups) {
				groups = append(groups, &group{dev: part.dev})
			}
			groups[i].parts = append(groups[i].parts, part)
		}
	}
	if len(groups) == 0 {
		return ts
	}
	if len(groups) == 1 {
		for _, part := range groups[0].parts {
			ts.add(part.dev, part.bytes, part.dev.Read(p, cg, part.bytes))
		}
		return ts
	}
	eng := p.Engine()
	left := len(groups)
	for _, g := range groups {
		eng.Spawn("tier-read", func(cp *sim.Proc) {
			for _, part := range g.parts {
				g.ts.add(g.dev, part.bytes, g.dev.Read(cp, cg, part.bytes))
			}
			if left--; left == 0 {
				eng.Wake(p)
			}
		})
	}
	for left > 0 {
		p.Suspend()
	}
	for _, g := range groups {
		ts.merge(g.ts)
	}
	return ts
}

func refProbe(s *Session, p *sim.Proc, cg *blkio.Cgroup, bytes float64) (ts refTier) {
	dev := s.store.SlowestDevice()
	if rc := s.Config.Resil; rc != nil {
		res := rc.Key(resil.KeyStagingProbe).Read(p, dev, cg, bytes)
		if res.Moved > 0 {
			ts.add(dev, res.Moved, res.Elapsed)
		}
		return ts
	}
	ts.add(dev, bytes, dev.Read(p, cg, bytes))
	return ts
}

// launchReference is Launch as it was while the step loop was the
// container's process, spawned before the weight controller attached.
func launchReference(s *Session, node *container.Node) error {
	s.attachResil(node)
	cont, err := node.Launch(s.Name, func(c *container.Container, p *sim.Proc) {
		for step := 0; step < s.Config.Steps; step++ {
			runStepReference(s, c, p, step)
		}
		s.finish()
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
		pfCont, err := node.Create(s.Name + "-prefetch")
		if err != nil {
			return err
		}
		s.launchPrefetcher(pfCont)
	}
	return nil
}

// runStepReference is one step of the process loop.
func runStepReference(s *Session, c *container.Container, p *sim.Proc, step int) {
	cfg := s.Config
	start := p.Now()
	st := StepStats{Step: step, Start: start}
	var cs0 cache.Stats
	if s.cache != nil {
		cs0 = s.cache.Stats()
	}
	cursor, predicted, degree := s.planCursor(step)
	st.Cursor, st.Predicted, st.Degree = cursor, predicted, degree
	if maxB := len(s.store.Hierarchy().Rungs()) + 1; cap(s.bktArena)-len(s.bktArena) < maxB {
		s.bktArena = make([]BucketStat, 0, maxB*min(bucketChunkSteps, cfg.Steps-step))
	}
	b0 := len(s.bktArena)
	var tier refTier
	mandatory := s.mandatoryCursor()

	baseStats, retries := refReadBaseGuarded(s, p, c.Cgroup())
	_, st.BaseTime = baseStats.total()
	st.Retries += retries
	tier.merge(baseStats)

	bkts := []bucket{{0, cursor, math.NaN()}}
	if cfg.Policy.adaptive() {
		bkts = s.buckets(cursor)
	}
	for _, b := range bkts {
		weight := 0
		if cfg.Policy.adjustsWeights() {
			weight = s.setWeight(c, s.wf.Weight(float64(b.to-b.from), b.bound, cfg.Priority))
		}
		bs := BucketStat{Bound: b.bound, From: b.from, To: b.to, Weight: weight, Start: p.Now()}
		if weight > 0 {
			cfg.Trace.Emit(p.Now(), s.Name, trace.KindWeight, "w=%d bound=%g card=%d", weight, b.bound, b.to-b.from)
		}
		if cfg.ParallelTierReads {
			tier.merge(refReadRangeParallel(s, p, c.Cgroup(), b.from, b.to))
			st.Cursor = b.to
		} else {
			ts, out := refReadRangeGuarded(s, p, c.Cgroup(), b.from, b.to, mandatory)
			tier.merge(ts)
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
	if cfg.Policy.adjustsWeights() {
		switch {
		case cfg.Allocator != nil:
			cfg.Allocator.Release(s.Name)
		case cfg.Tokens != nil:
			cfg.Tokens.Release(s.tb)
		default:
			s.applyWeight(c, blkio.DefaultWeight)
		}
		pt := refProbe(s, p, c.Cgroup(), probeBytes)
		bytes, elapsed := pt.total()
		tier.merge(pt)
		if elapsed > 0 {
			st.SlowBW = bytes / elapsed
		}
	} else {
		slow := s.store.SlowestDevice()
		if b, _ := tier.on(slow); b < probeBytes {
			tier.merge(refProbe(s, p, c.Cgroup(), probeBytes))
		}
		if slowBytes, slowTime := tier.on(slow); slowTime > 0 && slowBytes > 0 {
			st.SlowBW = slowBytes / slowTime
		}
	}
	if st.SlowBW > 0 {
		s.est.Observe(st.SlowBW)
	} else {
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
			panic(err)
		}
		cfg.Trace.Emit(p.Now(), s.Name, trace.KindRefit, "samples=%d window=%d thresh=%.2f", s.est.Samples(), cfg.Window, threshFrac)
		refitted = true
		s.regimeStreak = 0
	}
	if !refitted && st.Predicted > 0 && st.SlowBW > 0 {
		relErr := math.Abs(st.Predicted-st.SlowBW) / math.Max(st.Predicted, st.SlowBW)
		if relErr > regimeTol {
			s.regimeStreak++
		} else {
			s.regimeStreak = 0
		}
		if s.regimeStreak >= regimeRun && s.est.Samples() >= 4 {
			if err := s.est.Fit(); err != nil {
				panic(err)
			}
			cfg.Trace.Emit(p.Now(), s.Name, trace.KindRefit,
				"regime change: relerr=%.2f for %d steps, refit (samples=%d)", relErr, s.regimeStreak, s.est.Samples())
			s.regimeStreak = 0
		}
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		st.CacheHits = cs.Hits - cs0.Hits
		st.CacheMisses = cs.Misses - cs0.Misses
		st.CacheHitBytes = cs.HitBytes - cs0.HitBytes
		s.cache.EndStep()
	}
	st.Bytes, _ = tier.total()
	st.IOTime = p.Now() - start
	st.Buckets = s.bktArena[b0:len(s.bktArena):len(s.bktArena)]
	s.stats = append(s.stats, st)
	cfg.Trace.Emit(p.Now(), s.Name, trace.KindStep, "step=%d io=%.3fs bytes=%.0f cursor=%d pred=%.0f degree=%.2f",
		step, st.IOTime, st.Bytes, st.Cursor, st.Predicted, st.Degree)
	if wait := period - (p.Now() - start); wait > 0 {
		p.Sleep(wait)
	}
}

// stepScenario is one seeded node: two sessions over their own stores on
// shared tiers (the fast one possibly with no request latency), Table IV
// interferers, a weight-control mode, resil with or without hedging,
// sequential or parallel tier reads, a cache, and fault plans on both
// tiers and on a session's cgroup.
type stepScenario struct {
	seed     int64
	policies [2]Policy
	control  string // "", central, tokens, hybrid
	resil    bool
	hedge    bool
	parallel bool
	cache    bool
	zeroLat  bool // the fast tier has no request latency
	noise    int
	faults   bool
	scale    float64
	steps    int
}

func drawStepScenario(seed int64) stepScenario {
	rng := rand.New(rand.NewSource(seed))
	all := ExtendedPolicies()
	sc := stepScenario{
		seed:     seed,
		policies: [2]Policy{all[rng.Intn(len(all))], all[rng.Intn(len(all))]},
		control:  []string{"", "central", "tokens", "hybrid"}[rng.Intn(4)],
		resil:    rng.Intn(3) > 0,
		parallel: rng.Intn(3) == 0,
		cache:    rng.Intn(2) == 0,
		zeroLat:  rng.Intn(3) == 0,
		noise:    rng.Intn(5),
		faults:   rng.Intn(5) > 0,
		scale:    []float64{8, 64, 256}[rng.Intn(3)],
		steps:    20 + rng.Intn(30),
	}
	sc.hedge = sc.resil && rng.Intn(2) == 0
	return sc
}

// stepOutcome fingerprints a run: every step record and bucket of both
// sessions, the devices, cgroups, controllers and caches, the clock and
// the trace, with floats as bit patterns.
func runStepScenario(t *testing.T, sc stepScenario, reference bool) (string, *trace.Recorder) {
	t.Helper()
	node := container.NewNode("n")
	ssdP := device.SSD("ssd")
	if sc.zeroLat {
		ssdP.RequestLatency = 0
	}
	ssd := node.MustAddDevice(ssdP)
	hdd := node.MustAddDevice(device.HDD("hdd"))
	eng := node.Engine()
	rec := trace.New(1 << 16)
	handles := workload.LaunchNoiseSetControlled(node, hdd, workload.FirstPaperNoise(sc.noise))
	var rc *resil.Controller
	if sc.resil {
		rc = resil.New(eng, resil.Options{Trace: rec, Hedge: resil.HedgeConfig{Enabled: sc.hedge}})
	}
	var alloc *coordinator.Allocator
	var tokens *tokenctl.Controller
	switch sc.control {
	case "central":
		alloc = coordinator.New()
		alloc.SetTrace(rec, eng.Now)
	case "tokens":
		tokens = tokenctl.New(eng.Now, tokenctl.Options{})
		tokens.SetTrace(rec)
	case "hybrid":
		tokens = tokenctl.New(eng.Now, tokenctl.Options{EpochSec: 300})
		tokens.SetTrace(rec)
	}
	if sc.faults {
		var names []string
		for _, n := range workload.FirstPaperNoise(sc.noise) {
			names = append(names, n.Name)
		}
		plan, err := fault.Generate(sc.seed, fault.GenerateOptions{Horizon: float64(sc.steps) * period, Device: "hdd", Cgroup: "a",
			Interferers: names, Events: 8})
		if err != nil {
			t.Fatal(err)
		}
		fast, err := fault.Generate(sc.seed+1, fault.GenerateOptions{Horizon: float64(sc.steps) * period, Device: "ssd", Cgroup: "b", Events: 6})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range fast.Events {
			if e.Kind != fault.Join {
				plan.Events = append(plan.Events, e)
			}
		}
		in := fault.NewInjector(node, rec, plan)
		in.RegisterNoise(handles)
		if err := in.Arm(); err != nil {
			t.Fatal(err)
		}
	}
	var sessions []*Session
	for i, name := range []string{"a", "b"} {
		st, err := staging.StageScaled(testHierarchy(t), node.Tiers(), sc.scale)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Policy: sc.policies[i], Steps: sc.steps, ErrorControl: i == 0, Bound: 0.01, Priority: []float64{10, 5}[i],
			ParallelTierReads: sc.parallel, Trace: rec, Allocator: alloc, Tokens: tokens, Resil: rc}
		if sc.cache {
			cc := cache.Config{CapacityMB: 64 << i}
			cfg.Cache = &cc
		}
		s, err := NewSession(name, st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		launch := (*Session).Launch
		if reference {
			launch = launchReference
		}
		if err := launch(s, node); err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	// A sampler at every step boundary: no process may be live on the
	// callback path, and the reference must see the same events.
	smp := &stepSampler{eng: eng, rec: rec, t: t, check: !reference}
	eng.AtCall(period/2, smp)
	if err := eng.Run(float64(sc.steps)*period + 600); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	b := func(v float64) string { return fmt.Sprintf("%x", math.Float64bits(v)) }
	for _, s := range sessions {
		fmt.Fprintf(&out, "session %s steps=%d finished=%t\n", s.Name, len(s.Stats()), s.finished)
		for _, st := range s.Stats() {
			fmt.Fprintf(&out, "%d %s %s %s %s %s %s %s %s %d %d %t %d %d %s\n", st.Step, b(st.Start), b(st.IOTime), b(st.BaseTime),
				b(st.Bytes), b(st.SlowBW), b(st.Predicted), b(st.Degree), b(st.CacheHitBytes), st.Cursor, st.Retries, st.Degraded,
				st.CacheHits, st.CacheMisses, b(float64(len(st.Buckets))))
			for _, bk := range st.Buckets {
				fmt.Fprintf(&out, "  %s %d %d %d %s %s\n", b(bk.Bound), bk.From, bk.To, bk.Weight, b(bk.Start), b(bk.Elapsed))
			}
		}
		if s.cache != nil {
			fmt.Fprintf(&out, "cache %+v prefetch %+v used=%s\n", s.cache.Stats(), s.pf.Stats(), b(s.cache.Used()))
		}
		cg := s.cont.Cgroup()
		fmt.Fprintf(&out, "cg %s read=%s weight=%d\n", cg.Name(), b(cg.BytesRead()), cg.Weight())
	}
	for _, d := range []*device.Device{ssd, hdd} {
		fmt.Fprintf(&out, "%s total=%s busy=%s used=%s\n", d.Name(), b(d.TotalBytes()), b(d.BusyTime()), b(d.Used()))
	}
	if rc != nil {
		fmt.Fprintf(&out, "resil %+v\n", rc.Totals())
	}
	if tokens != nil {
		fmt.Fprintf(&out, "tokens %+v\n", tokens.Stats())
	}
	fmt.Fprintf(&out, "now=%s pending=%d samples=%v\n", b(eng.Now()), eng.Pending(), smp.seen)
	for _, e := range rec.Events() {
		fmt.Fprintf(&out, "%s %s %s %s\n", b(e.T), e.Source, e.Kind, e.Msg())
	}
	eng.Close()
	return out.String(), rec
}

// stepSampler looks at every step boundary (every period) from an event
// armed half a period before, after the session armed its step start: it
// runs just after a step began, before anything the step's first read
// put on the queue at that instant. It records the events queued, the
// events armed so far — one hop more or fewer anywhere moves it — and the
// trace length — which a read that ended at issue and carried on inline
// has already moved — and, when checking, fails the test if any process
// is live.
type stepSampler struct {
	eng   *sim.Engine
	rec   *trace.Recorder
	t     *testing.T
	check bool
	armed bool
	seen  []int64
}

func (p *stepSampler) Fire() {
	now := p.eng.Now()
	if p.armed = !p.armed; p.armed {
		p.eng.AtCall(now+period/2, p)
		return
	}
	p.seen = append(p.seen, int64(p.eng.Pending()), p.eng.Scheduled(), int64(len(p.rec.Events())))
	if n := p.eng.LiveProcs(); p.check && n != 0 {
		p.t.Errorf("%d processes live at %v", n, now)
	}
	p.eng.AtCall(now+period/2, p)
}

// TestStepMatchesProcessLoop: over seeded scenarios — every policy, no
// weight control or central, tokens or hybrid, resil with and without
// hedging, sequential and parallel tier reads, caches, a fast tier with
// no request latency, fault plans on both tiers and a cgroup — the
// callback step leaves every step record, device, cgroup, controller,
// cache and trace event where the process loop left them, bit for bit,
// and no process is live at any step boundary.
func TestStepMatchesProcessLoop(t *testing.T) {
	seeds := int64(160)
	if testing.Short() {
		seeds = 40
	}
	seen := map[string]int{}
	for seed := int64(1); seed <= seeds; seed++ {
		sc := drawStepScenario(seed)
		want, _ := runStepScenario(t, sc, true)
		got, rec := runStepScenario(t, sc, false)
		if got != want {
			gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
			for i := range min(len(gl), len(wl)) {
				if gl[i] != wl[i] {
					t.Fatalf("seed %d (%+v): line %d differs\ncallback: %s\nprocess:  %s", seed, sc, i, gl[i], wl[i])
				}
			}
			t.Fatalf("seed %d (%+v): %d lines, process loop %d", seed, sc, len(gl), len(wl))
		}
		for _, e := range rec.Events() {
			msg := e.Msg()
			for _, k := range []string{"retry key=adhoc", "degrade dev", "launch key", "win key", "lose key", "pace key", "open key", "staged", "regime change"} {
				if strings.HasPrefix(msg, k) {
					seen[k]++
				}
			}
		}
		if sc.zeroLat && sc.faults {
			seen["zero-latency faulted"]++
		}
		if sc.parallel {
			seen["parallel"]++
		}
	}
	for _, k := range []string{"retry key=adhoc", "degrade dev", "launch key", "win key", "open key", "staged", "zero-latency faulted", "parallel"} {
		if seen[k] == 0 {
			t.Errorf("no scenario reached %q: %v", k, seen)
		}
	}
	t.Logf("reached: %v", seen)
}
