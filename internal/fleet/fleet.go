// Package fleet scales the single-node Tango stack to an N-node cluster
// backed by a shared remote object store (internal/objstore). Each node
// is a full single-node deployment — its own sim engine, local SSD (the
// L2 ephemeral tier), blkio controller, weight coordinator, and
// resilience control plane — and the cluster coordinator ties them
// together with three barrier-time mechanisms:
//
//   - interference-aware placement: incoming (and rebalanced) sessions
//     go to the node with the lowest predicted load, where the per-node
//     L3 demand forecast reuses the DFT estimator the single-node
//     controller uses for interference prediction;
//   - fault rebalancing: fault.NodeKill events in the plan take nodes
//     out of service at epoch barriers; their sessions restart cold on
//     the survivors (ephemeral L2 does not outlive the node), and when
//     the node revives, planned migrations move sessions back, draining
//     dirty L2 state into the store and restoring it on the new node;
//   - shared-egress shaping: the store's cluster-wide egress is water-
//     filled across per-node demand forecasts every epoch, granting each
//     node's store frontend a bandwidth share (device.SetShare).
//
// Time advances in epochs. Within an epoch, every node's window arms its
// sessions' steps and runs its engine independently — internal/runpool
// executes the windows with any worker width — and all cross-node state
// (placement, migration, egress shares, ledger harvesting) mutates only
// at the sequential barrier between windows, in node-index order. A
// window touches its own node's state alone, so each engine is armed in
// the same order at any width. That split is the determinism contract:
// same-seed runs are byte-identical at any -parallel width.
//
// A node killed mid-run abandons its engine wholesale: session steps
// mid-transfer on its devices never go on (their events are never run),
// and a revived node is rebuilt from scratch with an empty L2 — exactly
// the semantics of losing the machine.
package fleet

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"tango/internal/container"
	"tango/internal/coordinator"
	"tango/internal/device"
	"tango/internal/dftestim"
	"tango/internal/fault"
	"tango/internal/objstore"
	"tango/internal/resil"
	"tango/internal/runpool"
	"tango/internal/sim"
	"tango/internal/slab"
	"tango/internal/tokenctl"
	"tango/internal/trace"
)

const (
	mb = 1024 * 1024
	// epochSec is the epoch length in virtual seconds and every session's
	// analysis period: one step per session per epoch (the paper's 60 s
	// period, §IV-A).
	epochSec = 60
)

// Config sizes one cluster run. The object store is
// objstore.Default(Nodes), and the first min(2, Epochs-1) epochs warm L2
// from it: they are left out of violation counting and throughput
// summaries.
type Config struct {
	Nodes    int   // simulated nodes (>= 1)
	Sessions int   // sessions placed across the fleet (>= 1)
	Seed     int64 // drives session parameter generation
	// Epochs is the number of epochs to run (default 8).
	Epochs int
	// Plan is a fault plan. NodeKill events (target "node<i>") are
	// interpreted by the cluster coordinator at epoch barriers; device
	// faults are armed on every node's local devices; other kinds are
	// ignored at fleet scope.
	Plan *fault.Plan
	// Trace receives barrier-time cluster events (KindPlace,
	// KindMigrate, KindEgress, KindFault). Session steps do not emit —
	// windows run in parallel, and a shared recorder's event order would
	// not be deterministic. May be nil.
	Trace *trace.Recorder
	// Control selects each node's weight-control mode: the central
	// coordinator (default), decentralized token buckets, or hybrid —
	// token buckets with a coordinator-style resync every 5 epochs (see
	// internal/tokenctl). The mode survives node kills: a rebuilt node
	// gets a fresh controller of the same mode.
	Control tokenctl.Mode
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 1
	}
	if c.Sessions == 0 {
		c.Sessions = c.Nodes * 10
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Epochs == 0 {
		c.Epochs = 8
	}
	return c
}

func (c Config) validate() error {
	if c.Nodes < 1 || c.Sessions < 1 {
		return fmt.Errorf("fleet: need at least one node and one session (%d/%d)", c.Nodes, c.Sessions)
	}
	if c.Epochs < 1 {
		return fmt.Errorf("fleet: need at least one epoch (%d)", c.Epochs)
	}
	switch c.Control {
	case tokenctl.ModeCentral, tokenctl.ModeTokens, tokenctl.ModeHybrid:
		return nil
	}
	return fmt.Errorf("fleet: unknown control mode %v (want central, tokens or hybrid)", c.Control)
}

// Report is the outcome of one cluster run.
type Report struct {
	Nodes    int
	Sessions int
	Epochs   int

	// EpochMBps is the aggregate delivered session throughput per epoch
	// (MB/s, bytes counted at step completion).
	EpochMBps []float64
	// AggMBps is the mean over measured (post-warm) epochs.
	AggMBps float64
	// Violations counts session steps (post-warm) that exceeded the
	// period; ViolNodes counts nodes with at least one.
	Violations int
	ViolNodes  int
	// SkippedSteps counts steps not issued because the session's
	// previous step was still in flight (overrun back-pressure).
	SkippedSteps int
	// Migrations counts session moves (cold restarts after a kill plus
	// planned drain/restore moves); Kills counts nodes taken out.
	Migrations int
	Kills      int
	// Store is the harvested object-store ledger; StoreCost its dollar
	// cost.
	Store     objstore.Stats
	StoreCost float64
	// RecoveryFrac compares mean post-first-kill throughput to the mean
	// measured throughput before it (1 when the plan kills nothing).
	RecoveryFrac float64
	// Tokens aggregates the per-node token controllers' ledger traffic
	// (zero in central mode; counters on killed nodes die with them).
	Tokens tokenctl.Stats
}

// TotalsLine renders the one-line cluster summary the CLIs print.
func (r *Report) TotalsLine() string {
	return fmt.Sprintf(
		"cluster totals: %d nodes, %d sessions: agg %.1f MB/s, %d bound violations (%d nodes), %d migrations, %d kills, egress %s GB / ingress %s GB (%d reqs, $%.4f), recovery %.0f%%",
		r.Nodes, r.Sessions, r.AggMBps, r.Violations, r.ViolNodes, r.Migrations, r.Kills,
		objstore.FmtGB(r.Store.EgressBytes), objstore.FmtGB(r.Store.IngressBytes),
		r.Store.Requests, r.StoreCost, 100*r.RecoveryFrac)
}

// node is one fleet member: a full single-node stack plus the cluster
// coordinator's per-node bookkeeping. Killing the node drops the whole
// struct's engine-bound state; revival rebuilds it.
type node struct {
	idx  int
	name string

	cn    *container.Node
	ssd   *device.Device
	rem   *objstore.Remote
	alloc *coordinator.Allocator // central mode (nil otherwise)
	tok   *tokenctl.Controller   // tokens/hybrid mode (nil in central)
	rc    *resil.Controller

	est       *dftestim.Estimator
	demandSum float64 // observed L3 bytes/s, summed over epochs
	demandN   int

	sessions []*session // owned sessions in step order: phase, then id
	arrivals int        // sessions place has picked this node for, not yet attached
	load     float64    // Σ session step-cost (placement score term)
	shed     bool       // a session has moved off: its cgroup may still be here

	alive     bool
	killUntil float64

	// measured mirrors the current epoch's measured flag (set at the head
	// of the window, read by the steps it arms).
	measured bool
	err      error // the engine's error at the end of the last window

	ops    *stepOp             // ops of finished steps, chained through next, taken again at a step instant
	opSlab slab.Chunks[stepOp] // where a miss on the free chain takes its op from

	// per-epoch accumulators; reset at each barrier. Written only from
	// this node's engine context (the parallel window) or the barrier.
	demandBytes float64 // bytes actually pulled from the store this epoch
	stepBytes   float64 // session bytes delivered this epoch
	viol        int
	skips       int
}

// Cluster is an N-node fleet bound to one object store. Construct with
// New, run with Run; a Cluster is single-use.
type Cluster struct {
	cfg   Config
	warm  int             // leading warm-up epochs: min(2, Epochs-1)
	obj   objstore.Params // objstore.Default(Nodes)
	ran   bool            // Run was called
	store *objstore.Store
	nodes []*node
	sess  []*session
	rec   *trace.Recorder

	planApplied []bool // per plan event

	kills      int
	migrations int
	skips      int
	violTotal  int
	violByNode []int // cumulative per node index; survives node rebuilds
	epochMBps  []float64
	killEpoch  int // first epoch with a kill; -1 = none

	demandScratch []float64
	heap, lows    placer                    // place's heap and settle's two
	tasks         []*runpool.Task[struct{}] // forNodes' tasks, one per worker, reused
	visits        int                       // nodes settle has read, its seeding pass included (a work count)
	// forNodes' step calendars: one per worker, padded off each other's cache lines
	cals []struct {
		sim.Calendar
		_ [64]byte
	}
	// topoDirty is set when the alive set changes (kill, revive) and
	// cleared once settle has fully rebalanced: in a steady no-fault run
	// settle never fires and migrations stay at zero.
	topoDirty bool
}

// New builds the cluster: the store, the nodes, and the session
// population (parameters drawn seed-deterministically), and places every
// session by predicted interference. It returns an error on a bad
// config or plan.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Plan != nil {
		if err := cfg.Plan.Validate(); err != nil {
			return nil, err
		}
	}
	obj := objstore.Default(cfg.Nodes)
	c := &Cluster{
		cfg:        cfg,
		warm:       min(2, cfg.Epochs-1),
		obj:        obj,
		store:      objstore.New(obj),
		rec:        cfg.Trace,
		killEpoch:  -1,
		violByNode: make([]int, cfg.Nodes),
		epochMBps:  make([]float64, 0, cfg.Epochs),
	}
	if cfg.Plan != nil {
		c.planApplied = make([]bool, len(cfg.Plan.Events))
	}
	c.nodes = make([]*node, cfg.Nodes)
	for i := range c.nodes {
		c.nodes[i] = c.buildNode(i, true)
	}
	c.sess = genSessions(cfg.Sessions, cfg.Seed, obj.NodeBandwidth)
	c.place(c.sess, 0, "arrival")
	return c, nil
}

// buildNode constructs (or, with attach=false, rebuilds after a kill)
// the engine-bound state of node i.
func (c *Cluster) buildNode(i int, attach bool) *node {
	nd := &node{idx: i, name: fmt.Sprintf("node%d", i), alive: true}
	nd.cn = container.NewNode(nd.name)
	nd.ssd = nd.cn.MustAddDevice(device.SSD("ssd"))
	if attach {
		nd.rem = c.store.Attach(nd.cn.Engine())
	} else {
		nd.rem = c.store.Detach(i, nd.cn.Engine())
	}
	nd.rc = resil.New(nd.cn.Engine(), resil.Options{})
	if c.cfg.Control == tokenctl.ModeCentral {
		nd.alloc = coordinator.New()
		nd.alloc.SetResil(nd.rc)
	} else {
		var topts tokenctl.Options
		if c.cfg.Control == tokenctl.ModeHybrid {
			topts.EpochSec = 5 * epochSec
		}
		nd.tok = tokenctl.New(nd.cn.Engine().Now, topts)
		nd.tok.SetResil(nd.rc)
	}
	nd.est = dftestim.NewEstimator()
	if c.cfg.Plan != nil && attach {
		c.armDeviceFaults(nd)
	}
	return nd
}

// armDeviceFaults arms the plan's device-fault events on one node's
// local devices (every node sees the same local-fault schedule; node
// kills are handled by the cluster, everything else is skipped). Armed
// once at construction — a revived node does not replay old faults.
func (c *Cluster) armDeviceFaults(nd *node) {
	var sub fault.Plan
	for _, e := range c.cfg.Plan.Events {
		if e.Kind.DeviceFault() && nd.cn.Device(e.Target) != nil {
			sub.Events = append(sub.Events, e)
		}
	}
	if len(sub.Events) == 0 {
		return
	}
	inj := fault.NewInjector(nd.cn, nil, &sub)
	if err := inj.Arm(); err != nil {
		panic(err) // unreachable: targets checked above
	}
}

// predictFrac forecasts the node's next-epoch store demand as a fraction
// of its frontend bandwidth: the DFT forecast once fitted, the running
// mean before that, and "everything" for a node with no history (cold
// nodes want the largest share to warm up).
func (nd *node) predictFrac(nodeBW float64) float64 {
	switch {
	case nd.est.Ready():
		v := nd.est.PredictNext()
		if v < 0 {
			v = 0
		}
		return v / nodeBW
	case nd.demandN > 0:
		return nd.demandSum / float64(nd.demandN) / nodeBW
	default:
		return 1
	}
}

// Run executes the configured epochs and returns the report. Single use:
// a second Run is an error.
func (c *Cluster) Run() (*Report, error) {
	if c.ran {
		return nil, errors.New("fleet: Run called twice")
	}
	c.ran = true
	for e := 0; e < c.cfg.Epochs; e++ {
		if err := c.epoch(e, (*node).scheduleSteps); err != nil {
			return nil, err
		}
	}
	return c.report(), nil
}

// epoch runs epoch e: the opening barrier, every live node's window, and
// the closing barrier. Each window first arms its node's steps with
// sched on its worker's calendar, then runs its engine to the epoch's end.
func (c *Cluster) epoch(e int, sched func(nd *node, cal *sim.Calendar, t0 float64)) error {
	t0 := float64(e) * epochSec

	// ---- barrier: cluster mutation, node-index order ----
	c.applyPlan(e, t0)
	if c.topoDirty {
		c.settle(t0)
	}
	c.reshare(e, c.obj.NodeBandwidth)
	measured := e >= c.warm

	// ---- parallel: per-node windows, any worker width ----
	c.forNodes("fleet window", func(nd *node, cal *sim.Calendar) {
		if nd.alive {
			nd.measured = measured
			sched(nd, cal, t0)
			if nd.err = nd.cn.Engine().Run(t0 + epochSec); nd.err != nil {
				*cal = sim.Calendar{} // a failed run stops with steps unfired
			}
			cal.Reset(nil, 0) // drained (steps lie in [t0, t0+30)): it keeps no engine
		}
	})
	for _, nd := range c.nodes {
		if nd.alive && nd.err != nil {
			return nd.err // the first in node order
		}
	}

	// ---- barrier: harvest, node-index order ----
	c.harvest(e)
	return nil
}

// forNodes runs f on every node from one runpool task per worker, each
// taking the next node index until none is left, so what it submits does
// not grow with the node count, and lending each f it runs its own step
// calendar. f must touch only its node's state and the calendar.
func (c *Cluster) forNodes(name string, f func(nd *node, cal *sim.Calendar)) {
	workers := min(runpool.Workers(), len(c.nodes))
	c.cals = slices.Grow(c.cals[:0], workers)[:workers]
	var claim struct{ node, worker atomic.Int64 }
	window := func() struct{} {
		cal := &c.cals[claim.worker.Add(1)-1].Calendar
		for i := claim.node.Add(1) - 1; i < int64(len(c.nodes)); i = claim.node.Add(1) - 1 {
			f(c.nodes[i], cal)
		}
		return struct{}{}
	}
	c.tasks = c.tasks[:0]
	for w := workers; w > 0; w-- {
		c.tasks = append(c.tasks, runpool.Submit(name, window))
	}
	for _, t := range c.tasks {
		t.Wait()
	}
}

// applyPlan interprets the fault plan at the barrier opening epoch e:
// kills whose time has come take their node out and restart its
// sessions cold on the survivors (a kill that would leave none is
// skipped); then nodes whose kill window has closed are rebuilt empty.
// Kills go first, so a kill is checked against the nodes alive before
// this barrier's revivals.
func (c *Cluster) applyPlan(epoch int, t0 float64) {
	if c.cfg.Plan == nil {
		return
	}
	for i, ev := range c.cfg.Plan.Events {
		if c.planApplied[i] || ev.Kind != fault.NodeKill || ev.At > t0 {
			continue
		}
		c.planApplied[i] = true
		idx, ok := nodeIndex(ev.Target)
		if !ok || idx < 0 || idx >= len(c.nodes) || !c.nodes[idx].alive {
			c.emit(t0, trace.KindFault, "skip node-kill node=%s (no such live node)", ev.Target)
			continue
		}
		if c.aliveCount() == 1 {
			c.emit(t0, trace.KindFault, "skip node-kill node=%s (would leave no live node)", ev.Target)
			continue
		}
		if c.killEpoch < 0 {
			c.killEpoch = epoch
		}
		nd := c.nodes[idx]
		orphans := c.kill(nd, ev.At+ev.Duration)
		c.emit(t0, trace.KindFault, "node-kill node=%s sessions=%d until=%g", nd.name, len(orphans), nd.killUntil)
		c.place(orphans, t0, "cold")
	}
	for i, nd := range c.nodes {
		if !nd.alive && nd.killUntil <= t0 {
			c.nodes[i] = c.buildNode(i, false)
			c.topoDirty = true
			c.emit(t0, trace.KindFault, "node-revive node=%s", c.nodes[i].name)
		}
	}
}

// kill takes nd out of service until the given time and returns the
// sessions it owned, in id order: the order place takes them in.
func (c *Cluster) kill(nd *node, until float64) []*session {
	nd.alive, nd.killUntil = false, until
	c.kills++
	c.topoDirty = true
	orphans := nd.sessions
	nd.sessions, nd.load = nil, 0
	for _, s := range orphans {
		// In-flight steps die with the node, the L2 working set is lost
		// (a cold restart), and the bucket died with its controller.
		s.busy, s.resident, s.restore = false, 0, 0
		s.nd, s.cg, s.tb = nil, nil, nil
		c.migrations++
	}
	slices.SortFunc(orphans, func(a, b *session) int { return a.id - b.id })
	return orphans
}

// nodeIndex parses a "node<i>" target strictly: only the spelling the
// fleet itself prints for node i is accepted ("node03", "node+3" and
// "node3x" are not node 3).
func nodeIndex(name string) (int, bool) {
	digits, ok := strings.CutPrefix(name, "node")
	if !ok {
		return 0, false
	}
	i, err := strconv.Atoi(digits)
	if err != nil || strconv.Itoa(i) != digits {
		return 0, false
	}
	return i, true
}

// place assigns the given sessions (id order) to alive nodes by
// predicted interference: each session goes to the node minimizing
// forecast store-demand fraction plus the load already placed on it,
// ties broken by node index. Heap-based, so placing the whole fleet's
// session population is O(S log N). The heap picks every session's node
// first, serially; the arrivals are then bucketed per node in session
// order, and each node registers its own, in that order, from a forNodes
// window (DESIGN.md "Arrival attach").
func (c *Cluster) place(list []*session, t float64, why string) {
	if len(list) == 0 {
		return
	}
	nodeBW := c.obj.NodeBandwidth
	c.heap = slices.Grow(c.heap[:0], len(c.nodes))
	for _, nd := range c.nodes {
		if nd.alive {
			c.heap.push(nd.idx, nd.predictFrac(nodeBW)+nd.load)
		}
	}
	alive := len(c.heap)
	if alive == 0 {
		panic("fleet: no alive nodes to place on")
	}
	for _, s := range list {
		idx, score := c.heap.pop()
		s.nd = c.nodes[idx]
		s.nd.arrivals++
		c.heap.push(idx, score+s.cost)
	}
	for _, nd := range c.nodes {
		nd.sessions = slices.Grow(nd.sessions, nd.arrivals)
	}
	for _, s := range list {
		s.nd.sessions = append(s.nd.sessions, s)
	}
	c.forNodes("fleet attach", func(nd *node, _ *sim.Calendar) {
		if nd.arrivals > 0 {
			nd.cn.Cgroups().Grow(nd.arrivals)
			if nd.alloc != nil {
				nd.alloc.Grow(nd.arrivals)
			}
			for _, s := range nd.sessions[len(nd.sessions)-nd.arrivals:] {
				nd.register(s)
			}
			nd.arrivals = 0
			slices.SortFunc(nd.sessions, byStep)
		}
	})
	c.emit(t, trace.KindPlace, "placed=%d reason=%s alive=%d", len(list), why, alive)
}

// register binds a session to the node's registries — cgroup, allocator
// entry and weight, or token bucket — and load, in the node's weight-request
// order: session order (DESIGN.md "Arrival attach"). A node a session has
// left keeps its cgroup for its return; on any other, nothing is looked up.
func (nd *node) register(s *session) {
	if s.cg = nil; nd.shed {
		s.cg = nd.cn.Cgroups().Lookup(s.name)
	}
	if s.cg == nil {
		s.cg = nd.cn.Cgroups().MustCreate(s.name)
	}
	if nd.tok != nil {
		tb, err := nd.tok.Attach(s.name, s.cg)
		if err != nil {
			panic(err) // unreachable: sessions detach before re-attaching
		}
		s.tb = tb
	} else {
		if err := nd.alloc.Attach(s.name, s.cg); err != nil {
			panic(err) // unreachable: sessions detach before re-attaching
		}
		nd.alloc.MustRequest(s.name, s.weight) // attached just above
	}
	nd.load += s.cost
}

// move re-binds an idle session from src to dst at its step-order place
// (planned migrations only — killed nodes drop their whole allocator).
func (c *Cluster) move(s *session, src, dst *node) {
	if src.tok != nil {
		src.tok.Detach(s.tb)
	} else {
		src.alloc.Detach(s.name)
	}
	src.sessions = slices.DeleteFunc(src.sessions, func(o *session) bool { return o == s })
	src.load -= s.cost
	src.shed = true
	s.nd = dst
	dst.register(s)
	i, _ := slices.BinarySearchFunc(dst.sessions, s, byStep)
	dst.sessions = slices.Insert(dst.sessions, i, s)
}

// settle rebalances session counts across alive nodes at a barrier:
// when the spread between the most and least loaded nodes exceeds one
// session (a revived node coming back empty, survivors overloaded after
// a kill), sessions migrate from the top to the bottom through the
// object store — dirty L2 state drains into the store at the source and
// the moved working set is restored from the store on the destination's
// L2 before its next step. Busy sessions (mid-step) do not move. In
// steady state the spread stays within one and nothing migrates.
//
// Source and destination are the lowest-index most and least loaded nodes:
// the tops of two (count, index) heaps, re-scored in place by each move. A
// source never falls below the target nor a destination rises above it, so
// the source's entry a move leaves in the min-heap reads too many sessions
// and the destination's in the max-heap too few, and neither reaches a top
// while a move is possible. An empty node's session list and registries
// are sized once, for the target.
func (c *Cluster) settle(t float64) {
	alive, total := 0, 0
	for _, nd := range c.nodes {
		if nd.alive {
			alive++
			total += len(nd.sessions)
		}
	}
	if alive < 2 {
		return
	}
	target := (total + alive - 1) / alive
	c.heap, c.lows = slices.Grow(c.heap[:0], alive), slices.Grow(c.lows[:0], alive)
	for _, nd := range c.nodes {
		if n := len(nd.sessions); nd.alive {
			c.heap.push(nd.idx, -float64(n))
			c.lows.push(nd.idx, float64(n))
			if n == 0 {
				nd.sessions = slices.Grow(nd.sessions, target)
				nd.cn.Cgroups().Grow(target)
				if nd.alloc != nil {
					nd.alloc.Grow(target)
				}
			}
		}
	}
	c.visits += alive
	moved, drained, restored := 0, 0.0, 0.0
	c.topoDirty = false
	for {
		src, dst := c.nodes[c.heap[0].idx], c.nodes[c.lows[0].idx]
		c.visits += 2
		if src == dst || len(src.sessions)-len(dst.sessions) <= 1 || len(src.sessions) <= target {
			break
		}
		// Highest-id idle session moves (newest work is cheapest to
		// shift; busy steps pin their session to the engine running it).
		var s *session
		for _, o := range src.sessions {
			if !o.busy && (s == nil || o.id > s.id) {
				s = o
			}
		}
		if s == nil {
			// Every candidate on src is mid-step: retry at the next barrier.
			c.topoDirty = true
			break
		}
		// Drain: dirty fraction of the resident set flushes store-side.
		// Restore: the moved working set re-fetches from the store on
		// the destination before the session's next step.
		drain := float64(s.resident * s.dirtyFrac)
		src.rem.AccountPut(drain)
		drained += drain
		s.restore += s.resident
		restored += s.resident
		s.resident = 0
		c.move(s, src, dst)
		c.heap.fix(-float64(len(src.sessions)))
		c.lows.fix(float64(len(dst.sessions)))
		c.migrations++
		moved++
	}
	if moved > 0 {
		c.emit(t, trace.KindMigrate, "moved=%d drained=%.0fMB restore=%.0fMB target=%d",
			moved, drained/mb, restored/mb, target)
	}
}

// reshare water-fills the store's shared egress across per-node demand
// forecasts (with 25% headroom) and emits the grant summary.
func (c *Cluster) reshare(epoch int, nodeBW float64) {
	if cap(c.demandScratch) < len(c.nodes) {
		c.demandScratch = make([]float64, len(c.nodes))
	}
	demands := c.demandScratch[:len(c.nodes)]
	for i, nd := range c.nodes {
		if !nd.alive {
			demands[i] = -1 // out of service: no grant, frontend untouched
			continue
		}
		demands[i] = nd.predictFrac(nodeBW) * nodeBW * 1.25
	}
	grants := c.store.Reshare(demands)
	lo, hi := math.Inf(1), math.Inf(-1) // a barrier leaves a node alive
	for i, g := range grants {
		if demands[i] >= 0 {
			lo, hi = min(lo, g), max(hi, g)
		}
	}
	c.emit(float64(epoch)*epochSec, trace.KindEgress,
		"epoch=%d grants MB/s min=%.1f max=%.1f total=%.1f", epoch, lo/mb, hi/mb, c.obj.TotalEgress/mb)
}

// harvest folds per-node epoch accumulators into the cluster totals at
// the closing barrier, observes each node's store demand into its DFT
// estimator, and drains the store ledgers — all in node-index order.
func (c *Cluster) harvest(epoch int) {
	var bytes float64
	for _, nd := range c.nodes {
		if !nd.alive {
			continue
		}
		obs := nd.demandBytes / epochSec
		nd.est.Observe(obs)
		nd.demandSum += obs
		nd.demandN++
		if !nd.est.Ready() && nd.est.Samples() >= 4 {
			if err := nd.est.Fit(); err != nil {
				panic(err) // unreachable: sample count checked
			}
		}
		bytes += nd.stepBytes
		c.violTotal += nd.viol
		c.violByNode[nd.idx] += nd.viol
		c.skips += nd.skips
		nd.demandBytes, nd.stepBytes, nd.viol, nd.skips = 0, 0, 0, 0
	}
	c.epochMBps = append(c.epochMBps, bytes/epochSec/mb)
	c.store.Harvest()
}

// report finalizes the run summary.
func (c *Cluster) report() *Report {
	cfg := c.cfg
	r := &Report{
		Nodes:        cfg.Nodes,
		Sessions:     cfg.Sessions,
		Epochs:       cfg.Epochs,
		EpochMBps:    c.epochMBps,
		Violations:   c.violTotal,
		SkippedSteps: c.skips,
		Migrations:   c.migrations,
		Kills:        c.kills,
		Store:        c.store.Totals(),
		StoreCost:    c.store.Cost(),
		RecoveryFrac: 1,
	}
	for _, v := range c.violByNode {
		if v > 0 {
			r.ViolNodes++
		}
	}
	for _, nd := range c.nodes {
		if nd.tok == nil {
			continue
		}
		st := nd.tok.Stats()
		r.Tokens.Borrows += st.Borrows
		r.Tokens.Repays += st.Repays
		r.Tokens.Recalls += st.Recalls
		r.Tokens.Writes += st.Writes
	}
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	r.AggMBps = mean(c.epochMBps[c.warm:])
	if c.killEpoch > c.warm {
		// A kill at or before the warm-up boundary leaves no measured
		// pre-kill baseline; RecoveryFrac stays at its default 1.
		pre := c.epochMBps[c.warm:c.killEpoch]
		post := c.epochMBps[c.killEpoch:]
		if len(pre) > 0 && len(post) > 0 && mean(pre) > 0 {
			r.RecoveryFrac = mean(post) / mean(pre)
		}
	}
	return r
}

func (c *Cluster) aliveCount() int {
	n := 0
	for _, nd := range c.nodes {
		if nd.alive {
			n++
		}
	}
	return n
}

func (c *Cluster) emit(t float64, kind, format string, args ...any) {
	c.rec.Emit(t, "fleet", kind, format, args...)
}

// byStep orders sessions by step instant, then id: a node's order, in which
// scheduleSteps adds their steps as they fire (DESIGN.md "Step order").
func byStep(a, b *session) int { return cmp.Or(cmp.Compare(a.phase, b.phase), a.id-b.id) }

// placer is a tiny binary min-heap over (node index, score), ties broken
// by lowest index — the deterministic placement queue. Its slice is
// reused across barriers.
type placer []placed

type placed struct {
	idx   int
	score float64
}

func (a placed) less(b placed) bool { return a.score < b.score || a.score == b.score && a.idx < b.idx }

//tango:hotpath
func (h *placer) push(idx int, score float64) {
	*h = append(*h, placed{idx, score})
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].less(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

//tango:hotpath
func (h *placer) pop() (int, float64) {
	q := *h
	top, last := q[0], len(q)-1
	q[0], q = q[last], q[:last]
	q.down()
	*h = q
	return top.idx, top.score
}

// fix re-scores the top entry and sifts it down to its place.
func (h placer) fix(score float64) { h[0].score = score; h.down() }

// down sifts the top entry down to its place.
//
//tango:hotpath
func (h placer) down() {
	for i := 0; ; {
		small := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && h[c].less(h[small]) {
				small = c
			}
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// Objstore is the object store the cluster runs over.
func (c *Cluster) Objstore() objstore.Params { return c.obj }

// Describe renders a short per-node table (first max rows) for the CLI.
func (c *Cluster) Describe(max int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-6s %9s %10s\n", "node", "alive", "sessions", "load")
	for i, nd := range c.nodes {
		if i >= max {
			fmt.Fprintf(&b, "... (%d more nodes)\n", len(c.nodes)-max)
			break
		}
		fmt.Fprintf(&b, "%-8s %-6t %9d %10.4f\n", nd.name, nd.alive, len(nd.sessions), nd.load)
	}
	return b.String()
}
