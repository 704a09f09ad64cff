package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"runtime"
	"time"

	"tango"
	"tango/internal/errmetric"
	"tango/internal/fault"
	"tango/internal/resil"
)

// scale fixes every input size of a run. BENCHMARK.json measures
// fullScale; quickScale is the smoke size perf_test.go and -quick use.
type scale struct {
	refactorN     int // side of the refactor workload's fields
	nodeN         int // side of the fields behind the node_* hierarchies
	quietSteps    int // session steps per node_quiet scenario
	faultedSteps  int // session steps per node_faulted session
	planSeeds     int // fault plans per node_faulted iteration
	fleetNodes    int
	fleetSessions int
	fleetKills    int  // nodes killed at t=240 for 120 s
	fleetWarmDiv  int  // the fleet warm-up cluster is 1/fleetWarmDiv of the timed one
	warm          bool // run the warm-up iterations (the smoke scale skips them)
}

var (
	fullScale  = scale{1025, 513, 600, 120, 12, 1000, 100_000, 10, 10, true}
	quickScale = scale{129, 129, 20, 20, 1, 10, 100, 1, 1, false}
)

// prescribedBound is the error bound every node_* session runs under.
const prescribedBound = 1e-2

// datasetMB is the staged size of each session's dataset (the harness
// default): retrieval must be a first-class load on the capacity tier
// for the adaptivity loop to have anything to do.
const datasetMB = 2048

var nrmseLadder = []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5}

func refactorOptions() tango.RefactorOptions {
	return tango.RefactorOptions{Levels: tango.LevelsForRatio(16, 2, 2), Bounds: nrmseLadder}
}

// outcome is what one iteration produced, reduced to numbers: the work
// attempted and failed, a digest of every simulated output, and the
// exact counts read from public state.
type outcome struct {
	units  int
	failed int
	digest [sha256.Size]byte
	counts map[string]float64
}

// instance is one workload with its inputs built. iterate is the timed
// part and only calls into the stack; check runs after the clock stops
// and turns what iterate returned into an outcome. tr and ev are non-nil
// only in the traced run.
type instance interface {
	iterate(tr *tracer, ev *eventCounts) (any, error)
	check(raw any) outcome
}

// workload describes one entry of BENCHMARK.json's workload list.
type workload struct {
	name string
	unit string
	// nominalIterS is one iteration's wall time on the 2-core box the
	// benchmark was sized on. The iteration count of a run is derived
	// from it and -seconds, never from a clock, so two commits compared
	// at the same -seconds do the same work.
	nominalIterS float64
	// setup builds the inputs and runs the warm-up iterations; main
	// repeats it and reports the median as setup_s.
	setup func(seed int64, sc scale) (instance, error)
}

func workloads() []workload {
	return []workload{
		{name: "refactor", unit: "grid point", nominalIterS: 2.2, setup: newRefactor},
		{name: "node_quiet", unit: "session step", nominalIterS: 0.25, setup: newNodeQuiet},
		{name: "node_faulted", unit: "session step", nominalIterS: 0.37, setup: newNodeFaulted},
		{name: "fleet", unit: "session step", nominalIterS: 4.1, setup: newFleet},
	}
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// digester hashes simulated outputs bit-exactly (floats by their IEEE
// bits), so a digest only repeats when every hashed value does.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}
func (d *digester) int(v int)     { d.u64(uint64(int64(v))) }
func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digester) str(s string)  { d.int(len(s)); d.h.Write([]byte(s)) }
func (d *digester) sum() (out [sha256.Size]byte) {
	copy(out[:], d.h.Sum(nil))
	return out
}

// ---- refactor ---------------------------------------------------------------

type refactorWL struct {
	seed int64
	n    int
	apps []tango.App
}

func newRefactor(seed int64, sc scale) (instance, error) {
	return warm(&refactorWL{seed: seed, n: sc.refactorN, apps: tango.Apps()}, 1, sc)
}

type rungResult struct {
	bound, ladderAcc, measured, outcomeErr float64
	cursor                                 int
}

type refactorApp struct {
	name       string
	entries    int
	encodedLen int
	rungs      []rungResult
	fullDiff   float64 // max |input - full-cursor recomposition of the decoded hierarchy|
}

func (w *refactorWL) iterate(tr *tracer, _ *eventCounts) (any, error) {
	out := make([]refactorApp, 0, len(w.apps))
	for _, app := range w.apps {
		endApp := tr.begin(app.Name)
		end := tr.begin("synth.generate_s")
		orig := app.Generate(w.n, w.seed)
		end()

		end = tr.begin("refactor.decompose_s")
		h, err := tango.DecomposeTensor(orig, refactorOptions())
		end()
		if err != nil {
			return nil, fmt.Errorf("refactor %s: %w", app.Name, err)
		}

		end = tr.begin("refactor.encode_s")
		var buf bytes.Buffer
		err = h.Encode(&buf)
		end()
		if err != nil {
			return nil, fmt.Errorf("refactor %s: encode: %w", app.Name, err)
		}

		end = tr.begin("refactor.decode_s")
		dec, err := tango.DecodeHierarchy(bytes.NewReader(buf.Bytes()))
		end()
		if err != nil {
			return nil, fmt.Errorf("refactor %s: decode: %w", app.Name, err)
		}

		res := refactorApp{name: app.Name, entries: dec.TotalEntries(), encodedLen: buf.Len()}
		for _, r := range dec.Rungs() {
			end = tr.begin("refactor.recompose_s")
			rec := dec.Recompose(r.Cursor)
			end()
			end = tr.begin("errmetric.measure_s")
			acc := errmetric.Measure(errmetric.NRMSE, orig.Data(), rec.Data())
			end()
			end = tr.begin("analytics.outcome_s")
			oe := app.OutcomeErr(orig, rec)
			end()
			res.rungs = append(res.rungs, rungResult{r.Bound, r.Achieved, acc, oe, r.Cursor})
		}
		end = tr.begin("refactor.recompose_s")
		full := dec.Recompose(dec.TotalEntries())
		end()
		res.fullDiff = orig.AbsDiffMax(full)
		out = append(out, res)
		endApp()
	}
	return out, nil
}

func (w *refactorWL) check(raw any) outcome {
	apps := raw.([]refactorApp)
	o := outcome{counts: map[string]float64{}}
	d := newDigester()
	points := w.n * w.n
	var entries, encoded int
	var cursorFrac float64
	for _, a := range apps {
		o.units += points
		ok := a.fullDiff <= 1e-9
		d.str(a.name)
		d.int(a.entries)
		d.int(a.encodedLen)
		for _, r := range a.rungs {
			d.int(r.cursor)
			d.f64(r.ladderAcc)
			d.f64(r.measured)
			d.f64(r.outcomeErr)
			if !(r.measured <= r.bound) {
				ok = false
			}
			if r.bound == prescribedBound {
				cursorFrac += float64(r.cursor) / float64(a.entries)
			}
		}
		if !ok {
			o.failed += points
		}
		entries += a.entries
		encoded += a.encodedLen
	}
	o.digest = d.sum()
	o.counts["refactor.entries"] = float64(entries)
	o.counts["refactor.encoded_mb"] = float64(encoded) / (1 << 20)
	o.counts["refactor.cursor_frac_at_1e-2"] = cursorFrac / float64(len(apps))
	return o
}

// ---- node_quiet and node_faulted ---------------------------------------------

// dataset is one application's refactored field with the cursor the
// prescribed bound requires of every step.
type dataset struct {
	h         *tango.Hierarchy
	mandatory int
}

// datasets decomposes each application's field once; the node_*
// workloads stage these read-only hierarchies into every scenario.
func datasets(seed int64, n int) ([]dataset, error) {
	var ds []dataset
	for _, app := range tango.Apps() {
		h, err := tango.DecomposeTensor(app.Generate(n, seed), refactorOptions())
		if err != nil {
			return nil, fmt.Errorf("decompose %s: %w", app.Name, err)
		}
		mandatory, err := h.CursorForBound(prescribedBound)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", app.Name, err)
		}
		ds = append(ds, dataset{h, mandatory})
	}
	return ds, nil
}

// warm runs inst's warm-up iterations, so lazily built tables (FFT
// plans, pools) and the heap are sized before anything is timed.
func warm(inst instance, n int, sc scale) (instance, error) {
	for i := 0; i < n && sc.warm; i++ {
		if _, err := inst.iterate(nil, nil); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

// scenario is one single-node run: what it was built from, and after
// the engine has run, the state the outcome is read from.
type scenario struct {
	node      *tango.Node
	hdd, ssd  *tango.Device
	data      dataset
	sessions  []*tango.Session
	summaries []tango.Summary      // one per session, taken by run
	steps     int                  // steps each session must finish
	rec       *tango.TraceRecorder // nil unless traced
	resil     *tango.ResilController
	tokens    *tango.TokenController
	injector  *tango.FaultInjector
}

// newScenario builds the paper's §IV-A node: SSD performance tier, HDD
// capacity tier, and the first nNoise Table IV interferers on the HDD.
// Traced, the scenario gets a recorder of its own: fault pairing reads
// one node's timeline.
func newScenario(name string, data dataset, nNoise int, ev *eventCounts) (*scenario, map[string]*tango.NoiseHandle) {
	node := tango.NewNode(name)
	s := &scenario{node: node, data: data, rec: ev.recorder(1 << 15)}
	s.ssd = node.MustAddDevice(tango.SSD("ssd"))
	s.hdd = node.MustAddDevice(tango.HDD("hdd"))
	return s, tango.LaunchTableIVNoiseControlled(node, s.hdd, nNoise)
}

// addSession stages the scenario's hierarchy at datasetMB and launches
// a session over it.
func (s *scenario) addSession(tr *tracer, name string, cfg tango.SessionConfig) error {
	h := s.data.h
	end := tr.begin("staging.stage_s")
	scaleBy := datasetMB * 1024 * 1024 / float64(h.BaseBytes()+h.TotalAugBytes())
	store, err := tango.StageScaled(h, s.node.Tiers(), math.Max(scaleBy, 1))
	end()
	if err != nil {
		return fmt.Errorf("%s: stage: %w", name, err)
	}
	end = tr.begin("core.new_session_s")
	sess, err := tango.NewSession(name, store, cfg)
	end()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	end = tr.begin("core.launch_s")
	err = sess.Launch(s.node)
	end()
	if err != nil {
		return fmt.Errorf("%s: launch: %w", name, err)
	}
	s.sessions = append(s.sessions, sess)
	s.steps = cfg.Steps
	return nil
}

// run drives the engine to the harness's horizon: the campaign plus an
// hour of slack for steps that overrun their period.
func (s *scenario) run(tr *tracer) error {
	end := tr.begin("sim.run_s")
	err := s.node.Engine().Run(float64(s.steps)*60 + 3600)
	end()
	if err != nil {
		return err
	}
	end = tr.begin("core.summary_s")
	for _, sess := range s.sessions {
		s.summaries = append(s.summaries, sess.Summary(0))
	}
	end()
	return nil
}

// nodeCounts accumulates the family-4 counts of the node_* workloads.
type nodeCounts struct {
	steps, violations, degraded, retries int
	ioS, bwMBps                          float64
	hddBytes, ssdBytes, hddBusyS         float64
	cacheHits, cacheMisses               int
	cacheHitMB, prefetchMB               float64
	resil                                resil.Totals
	borrows, repays, recalls             int
	injected                             int
	unpaired                             int // traced runs only
	traced                               bool
	parked                               int
	sessions                             int
}

// collect folds a finished scenario into the outcome: every step of
// every session must have completed with at least the prescribed
// bound's cursor, or the session's steps count as failed.
func (s *scenario) collect(d *digester, o *outcome, c *nodeCounts) {
	for i, sess := range s.sessions {
		stats, sum := sess.Stats(), s.summaries[i]
		o.units += s.steps
		bad := s.steps - len(stats) // not completed by the horizon
		d.str(sess.Name)
		d.int(sum.Steps)
		d.f64(sum.MeanIO)
		d.f64(sum.StdIO)
		d.f64(sum.P95IO)
		d.f64(sum.MeanBytes)
		d.f64(sum.MeanBW)
		for _, st := range stats {
			d.int(st.Cursor)
			d.f64(st.Bytes)
			d.int(st.Retries)
			if st.Cursor < s.data.mandatory {
				bad++
				c.violations++
			}
			if st.Degraded {
				c.degraded++
			}
			c.retries += st.Retries
			c.cacheHits += st.CacheHits
			c.cacheMisses += st.CacheMisses
			c.cacheHitMB += st.CacheHitBytes / tango.MB
		}
		o.failed += bad
		c.steps += len(stats)
		c.ioS += sum.MeanIO
		c.bwMBps += sum.MeanBW / tango.MB
		c.sessions++
		if cc := sess.Cache(); cc != nil {
			c.prefetchMB += cc.Stats().StagedBytes / tango.MB
		}
	}
	c.hddBytes += s.hdd.TotalBytes()
	c.ssdBytes += s.ssd.TotalBytes()
	c.hddBusyS += s.hdd.BusyTime()
	c.parked += s.node.Engine().LiveProcs()
	if s.resil != nil {
		t := s.resil.Totals()
		c.resil.Ops += t.Ops
		c.resil.Attempts += t.Attempts
		c.resil.Retries += t.Retries
		c.resil.Hedges += t.Hedges
		c.resil.BreakerOpens += t.BreakerOpens
	}
	if s.tokens != nil {
		st := s.tokens.Stats()
		c.borrows += st.Borrows
		c.repays += st.Repays
		c.recalls += st.Recalls
	}
	if s.injector != nil {
		c.injected += s.injector.Injected()
	}
	if s.rec != nil {
		c.traced = true
		c.unpaired += len(tango.UnpairedFaults(s.rec.Events()))
	}
}

func (c *nodeCounts) into(o *outcome) {
	n := math.Max(float64(c.sessions), 1)
	o.counts = map[string]float64{
		"core.steps":                     float64(c.steps),
		"core.sim_io_s_mean":             c.ioS / n,
		"core.sim_bw_mbps_mean":          c.bwMBps / n,
		"core.bound_violations":          float64(c.violations),
		"core.degraded_steps":            float64(c.degraded),
		"staging.retries":                float64(c.retries),
		"device.hdd_bytes":               c.hddBytes,
		"device.ssd_bytes":               c.ssdBytes,
		"device.hdd_busy_s":              c.hddBusyS,
		"cache.hits":                     float64(c.cacheHits),
		"cache.misses":                   float64(c.cacheMisses),
		"cache.hit_mb":                   c.cacheHitMB,
		"cache.prefetch_mb":              c.prefetchMB,
		"resil.attempts":                 float64(c.resil.Attempts),
		"resil.retries":                  float64(c.resil.Retries),
		"resil.amplification":            c.resil.Amplification(),
		"resil.hedges":                   float64(c.resil.Hedges),
		"resil.breaker_opens":            float64(c.resil.BreakerOpens),
		"tokenctl.borrows":               float64(c.borrows),
		"tokenctl.repays":                float64(c.repays),
		"tokenctl.recalls":               float64(c.recalls),
		"fault.injected":                 float64(c.injected),
		"sim.parked_goroutines_per_iter": float64(c.parked),
	}
	if c.traced {
		o.counts["fault.unpaired"] = float64(c.unpaired)
	}
}

type quietCase struct {
	app    int
	policy tango.Policy
	noise  int
}

type nodeQuiet struct {
	data  []dataset
	cases []quietCase
	steps int
}

func newNodeQuiet(seed int64, sc scale) (instance, error) {
	data, err := datasets(seed, sc.nodeN)
	if err != nil {
		return nil, err
	}
	w := &nodeQuiet{data: data, steps: sc.quietSteps}
	for app := range data {
		for _, pol := range []tango.Policy{tango.NoAdapt, tango.StorageOnly, tango.AppOnly, tango.CrossLayer} {
			for _, noise := range []int{1, 2, 4, 6} {
				w.cases = append(w.cases, quietCase{app, pol, noise})
			}
		}
	}
	return warm(w, 2, sc)
}

func (w *nodeQuiet) iterate(tr *tracer, ev *eventCounts) (any, error) {
	done := make([]*scenario, 0, len(w.cases))
	for i, c := range w.cases {
		name := fmt.Sprintf("quiet%d", i)
		endScen := tr.begin(name)
		s, _ := newScenario(name, w.data[c.app], c.noise, ev)
		err := s.addSession(tr, "analytics", tango.SessionConfig{
			Policy: c.policy, ErrorControl: true, Bound: prescribedBound,
			Priority: tango.PriorityHigh, Steps: w.steps, Trace: s.rec,
		})
		if err == nil {
			err = s.run(tr)
		}
		endScen()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		done = append(done, s)
	}
	return done, nil
}

func (w *nodeQuiet) check(raw any) outcome { return checkScenarios(raw.([]*scenario)) }

func checkScenarios(scens []*scenario) outcome {
	var o outcome
	var c nodeCounts
	d := newDigester()
	for _, s := range scens {
		s.collect(d, &o, &c)
	}
	o.digest = d.sum()
	c.into(&o)
	return o
}

// hybridEpochSec is the hybrid arm's resync period (the tokens
// experiment's): one coordinator-style rescale every five steps.
const hybridEpochSec = 300

type faultedCase struct {
	app     int
	plan    *tango.FaultPlan
	control tango.ControlMode
	resil   bool
}

type nodeFaulted struct {
	data  []dataset
	cases []faultedCase
	steps int
}

// massFaultPlan is harness.MassFaultPlan's shape: a dense capacity-tier
// plan (device, cgroup and churn faults) merged with a fast-tier plan,
// so both legs of a hedged read see faults.
func massFaultPlan(seed int64, steps int) (*tango.FaultPlan, error) {
	horizon := float64(steps) * 60
	hdd, err := tango.GenerateFaultPlan(seed, tango.FaultGenerateOptions{
		Horizon: horizon, Device: "hdd", Cgroup: "interactive",
		Interferers: []string{"noise1", "noise2", "noise3"}, Events: 15,
	})
	if err != nil {
		return nil, err
	}
	ssd, err := tango.GenerateFaultPlan(seed+1, tango.FaultGenerateOptions{
		Horizon: horizon, Device: "ssd", Events: 5,
	})
	if err != nil {
		return nil, err
	}
	return &tango.FaultPlan{Events: append(hdd.Events, ssd.Events...)}, nil
}

// faultPlanSeed is the first of the node_faulted plan seeds. The plans
// are part of the workload's definition, like its policies and control
// modes, and do not follow -seed, which varies the data they act on:
// how many retries and hedges a plan provokes differs by several percent
// from plan to plan, and that would be read as run-to-run spread.
const faultPlanSeed = 42_000

func newNodeFaulted(seed int64, sc scale) (instance, error) {
	data, err := datasets(seed, sc.nodeN)
	if err != nil {
		return nil, err
	}
	w := &nodeFaulted{data: data, steps: sc.faultedSteps}
	for i := 0; i < sc.planSeeds; i++ {
		// Two apart: the plan's SSD half draws from seed+1.
		plan, err := massFaultPlan(faultPlanSeed+int64(2*i), sc.faultedSteps)
		if err != nil {
			return nil, fmt.Errorf("fault plan %d: %w", i, err)
		}
		for _, mode := range []tango.ControlMode{tango.ModeCentral, tango.ModeTokens, tango.ModeHybrid} {
			for _, withResil := range []bool{false, true} {
				w.cases = append(w.cases, faultedCase{i % len(data), plan, mode, withResil})
			}
		}
	}
	return warm(w, 2, sc)
}

func (w *nodeFaulted) iterate(tr *tracer, ev *eventCounts) (any, error) {
	done := make([]*scenario, 0, len(w.cases))
	for i, c := range w.cases {
		name := fmt.Sprintf("faulted%d", i)
		endScen := tr.begin(name)
		s, err := w.runCase(tr, ev, name, c)
		endScen()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		done = append(done, s)
	}
	return done, nil
}

func (w *nodeFaulted) runCase(tr *tracer, ev *eventCounts, name string, c faultedCase) (*scenario, error) {
	s, noise := newScenario(name, w.data[c.app], 3, ev)
	rec := s.rec

	end := tr.begin("fault.arm_s")
	s.injector = tango.NewFaultInjector(s.node, rec, c.plan)
	s.injector.RegisterNoise(noise)
	err := s.injector.Arm()
	end()
	if err != nil {
		return nil, fmt.Errorf("arm faults: %w", err)
	}

	cfg := tango.SessionConfig{
		ErrorControl: true, Bound: prescribedBound, Steps: w.steps, RefitEvery: 10, Trace: rec,
	}
	switch c.control {
	case tango.ModeCentral:
		cfg.Allocator = tango.NewAllocator()
		if rec != nil {
			cfg.Allocator.SetTrace(rec, s.node.Engine().Now)
		}
	case tango.ModeTokens:
		s.tokens = tango.NewTokenController(s.node.Engine().Now, tango.TokenOptions{})
	case tango.ModeHybrid:
		s.tokens = tango.NewTokenController(s.node.Engine().Now, tango.TokenOptions{EpochSec: hybridEpochSec})
	}
	if s.tokens != nil {
		cfg.Tokens = s.tokens
		s.tokens.SetTrace(rec)
	}
	if c.resil {
		s.resil = tango.NewResilController(s.node.Engine(), tango.ResilOptions{
			Trace: rec, Hedge: tango.HedgeConfig{Enabled: true},
		})
		cfg.Resil = s.resil
	}

	interactive := cfg
	interactive.Policy, interactive.Priority = tango.CrossLayerPrefetch, tango.PriorityHigh
	if err := s.addSession(tr, "interactive", interactive); err != nil {
		return nil, err
	}
	batch := cfg
	batch.Policy, batch.Priority = tango.CrossLayer, tango.PriorityLow
	if err := s.addSession(tr, "batch", batch); err != nil {
		return nil, err
	}
	return s, s.run(tr)
}

func (w *nodeFaulted) check(raw any) outcome { return checkScenarios(raw.([]*scenario)) }

// ---- fleet --------------------------------------------------------------------

type fleetWL struct {
	cfg tango.FleetConfig
}

func fleetConfig(seed int64, nodes, sessions, kills int) tango.FleetConfig {
	plan := &tango.FaultPlan{}
	for i := 0; i < kills; i++ {
		plan.Events = append(plan.Events, tango.FaultEvent{
			At: 240, Kind: fault.NodeKill, Target: fmt.Sprintf("node%d", i), Duration: 120,
		})
	}
	return tango.FleetConfig{
		Nodes: nodes, Sessions: sessions, Seed: seed, Epochs: 8,
		Control: tango.ModeCentral, Plan: plan,
	}
}

// newFleet warms up on a cluster 1/fleetWarmDiv the size: three
// full-scale warm-ups (set-up is repeated for its median) would take
// longer than the timed phase.
func newFleet(seed int64, sc scale) (instance, error) {
	div := sc.fleetWarmDiv
	small := &fleetWL{cfg: fleetConfig(seed, sc.fleetNodes/div, sc.fleetSessions/div, max(sc.fleetKills/div, 1))}
	if _, err := warm(small, 1, sc); err != nil {
		return nil, err
	}
	return &fleetWL{cfg: fleetConfig(seed, sc.fleetNodes, sc.fleetSessions, sc.fleetKills)}, nil
}

type fleetRaw struct {
	rep              *tango.FleetReport
	goroutinesBefore int
}

func (w *fleetWL) iterate(tr *tracer, ev *eventCounts) (any, error) {
	before := runtime.NumGoroutine()
	cfg := w.cfg
	cfg.Trace = ev.recorder(1 << 12)
	end := tr.begin("fleet.new_s")
	c, err := tango.NewFleet(cfg)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("fleet.run_s")
	rep, err := c.Run()
	end()
	if err != nil {
		return nil, err
	}
	return fleetRaw{rep, before}, nil
}

// settledGoroutines reads the goroutine count once runpool's workers,
// which exit when their queue drains, have had time to do so.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

func (w *fleetWL) check(raw any) outcome {
	r := raw.(fleetRaw)
	rep := r.rep
	o := outcome{units: w.cfg.Sessions * w.cfg.Epochs, failed: rep.Violations + rep.SkippedSteps}
	d := newDigester()
	d.int(rep.Nodes)
	d.int(rep.Sessions)
	d.int(rep.Epochs)
	for _, v := range rep.EpochMBps {
		d.f64(v)
	}
	d.f64(rep.AggMBps)
	d.int(rep.Violations)
	d.int(rep.ViolNodes)
	d.int(rep.SkippedSteps)
	d.int(rep.Migrations)
	d.int(rep.Kills)
	d.f64(rep.Store.EgressBytes)
	d.f64(rep.Store.IngressBytes)
	d.int(rep.Store.Requests)
	d.f64(rep.StoreCost)
	d.f64(rep.RecoveryFrac)
	o.digest = d.sum()
	o.counts = map[string]float64{
		"fleet.session_steps":            float64(o.units - rep.SkippedSteps),
		"fleet.skipped_steps":            float64(rep.SkippedSteps),
		"fleet.violations":               float64(rep.Violations),
		"fleet.migrations":               float64(rep.Migrations),
		"fleet.kills":                    float64(rep.Kills),
		"fleet.sim_agg_mbps":             rep.AggMBps,
		"fleet.recovery_frac":            rep.RecoveryFrac,
		"objstore.egress_gb":             rep.Store.EgressBytes / (1 << 30),
		"objstore.requests":              float64(rep.Store.Requests),
		"objstore.cost_usd":              rep.StoreCost,
		"sim.parked_goroutines_per_iter": float64(settledGoroutines() - r.goroutinesBefore),
	}
	return o
}
