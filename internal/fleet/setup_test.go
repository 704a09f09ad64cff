package fleet

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"tango/internal/tokenctl"
)

// mallocs counts the heap objects f allocates (runtime-internal ones
// included, as the benchmark's allocs_per_unit does).
func mallocs(f func()) int {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int(after.Mallocs - before.Mallocs)
}

// TestSetupAllocCeilings holds the fleet's set-up path at the layer: with
// sessions, names, cgroups, coordinator entries and events coming from
// chunks, each node's registries made once and sized for its arrivals,
// each device's two error texts one string, and a breaker made only on a
// failure, building a cluster costs under 3/8 of an object per session,
// per-node constants (devices, controllers, chunks) included: 280 at this
// shape with go1.24, 338 while every registry was made empty and then
// replaced and a device spelled its error texts in three strings, 737
// while registries grew one attach at a time. Building plus running it —
// first-touch subscriptions, step ops up to the steps in flight, flows
// from chunks, one window task per worker — stays under 7/8 per session
// (629; 797 while device tables and the op freelist grew from nil, 884
// while the engine and each device kept their free structs in slices,
// 1,585 before chunks). One object per session creeping back (a closure
// per attach, a breaker per cgroup) trips either; before the chunks the
// two read 8.4 and 15.4 at this shape.
func TestSetupAllocCeilings(t *testing.T) {
	const nodes, sessions = 8, 800
	var c *Cluster
	var err error
	build := mallocs(func() { c, err = New(Config{Nodes: nodes, Sessions: sessions, Seed: 7}) })
	if err != nil {
		t.Fatal(err)
	}
	run := mallocs(func() { _, err = c.Run() })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("New allocated %d objects, New + Run %d", build, build+run)
	limit := 3 * sessions / 8
	if raceEnabled {
		limit += 30 // 300–303 over three -race runs
	}
	if build > limit {
		t.Errorf("New allocated %d objects (%.2f per session), want <= %d", build, float64(build)/sessions, limit)
	}
	if limit := 7 * sessions / 8; build+run > limit {
		t.Errorf("New + Run allocated %d objects (%.2f per session), want <= %d", build+run, float64(build+run)/sessions, limit)
	}
}

// A node chains the ops of ended steps and takes them again at the next
// step instants: once the chain holds as many as a window has steps in
// flight, a window takes no op from the node's slab. On a quiet cluster
// every step ends inside its window, so the chain after a window holds
// every op the node has taken, and an op it did not hold before the
// window came from the slab.
func TestStepOpsComeOffTheChain(t *testing.T) {
	c, err := New(Config{Nodes: 3, Sessions: 60, Seed: 7, Epochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	chained := func(nd *node) map[*stepOp]bool {
		ops := map[*stepOp]bool{}
		for op := nd.ops; op != nil; op = op.next {
			ops[op] = true
		}
		return ops
	}
	reused := 0
	for e := 0; e < c.cfg.Epochs; e++ {
		before := make([]map[*stepOp]bool, len(c.nodes))
		for i, nd := range c.nodes {
			before[i] = chained(nd)
		}
		if err := c.epoch(e, (*node).scheduleSteps); err != nil {
			t.Fatal(err)
		}
		for i, nd := range c.nodes {
			after := chained(nd)
			if len(after) == 0 {
				t.Fatalf("epoch %d: %s chains no ended step", e, nd.name)
			}
			if len(after) > len(before[i]) {
				continue // the chain held too few
			}
			reused++
			for op := range after {
				if !before[i][op] {
					t.Fatalf("epoch %d: %s took an op from its slab with %d chained", e, nd.name, len(before[i]))
				}
			}
		}
	}
	if reused == 0 {
		t.Fatal("no window ran on a chain that held enough")
	}
	t.Logf("%d windows took every op off the chain", reused)
}

// The name arena spells every id as fmt.Sprintf("sess%d", i) does, across
// the digit boundaries its size formula counts (9/10 … 99 999/100 000), in
// one buffer sized exactly, and the population costs a handful of objects.
func TestSessionNamesMatchSprintf(t *testing.T) {
	for _, n := range []int{1, 9, 10, 11, 100, 101, 100_001} {
		ss := genSessions(n, 42, 1)
		for i, s := range ss {
			if want := fmt.Sprintf("sess%d", i); s.name != want || s.id != i {
				t.Fatalf("n=%d: session %d is %q (id %d), want %q", n, i, s.name, s.id, want)
			}
			// One arena that never moved: each name starts where the last ended.
			if i > 0 && unsafe.StringData(s.name) != (*byte)(unsafe.Add(unsafe.Pointer(unsafe.StringData(ss[i-1].name)), len(ss[i-1].name))) {
				t.Fatalf("n=%d: name %d does not continue the arena", n, i)
			}
		}
	}
	if n := mallocs(func() { genSessions(1000, 42, 1) }); n > 10 {
		t.Fatalf("1000 sessions cost %d objects, want the slab, the arena, the pointer list and the rng", n)
	}
}

func TestRunTwiceIsAnError(t *testing.T) {
	c, err := New(Config{Nodes: 2, Sessions: 8, Seed: 1, Epochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	epochs := slices.Clone(first.EpochMBps)
	again, err := c.Run()
	if again != nil || err == nil || err.Error() != "fleet: Run called twice" {
		t.Fatalf("second Run: report %v, err %v", again, err)
	}
	if !slices.Equal(first.EpochMBps, epochs) || first.SkippedSteps != 0 {
		t.Fatalf("the second Run touched the first report: %+v", first)
	}
}

// A Control outside the three modes used to run as token control
// (buildNode took every non-central value for tokens); New rejects it,
// and a run needs at least one epoch.
func TestConfigRejectsBadControlAndEpochs(t *testing.T) {
	for _, cfg := range []Config{
		{Nodes: 1, Sessions: 2, Control: tokenctl.Mode(7)},
		{Nodes: 1, Sessions: 2, Control: tokenctl.Mode(-1)},
		{Nodes: 1, Sessions: 2, Epochs: -1},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted control %v, %d epochs", cfg.Control, cfg.Epochs)
		}
	}
	for _, m := range []tokenctl.Mode{tokenctl.ModeCentral, tokenctl.ModeTokens, tokenctl.ModeHybrid} {
		if _, err := New(Config{Nodes: 1, Sessions: 2, Epochs: 1, Control: m}); err != nil {
			t.Errorf("control %v: %v", m, err)
		}
	}
}

// Every node keeps its sessions in step order (phase, then id) through
// place's bucketed attach, kills and settle's single inserts, owns each
// session once, and leaves a dead node with none.
func TestSessionsStaySortedThroughKillAndSettle(t *testing.T) {
	c, err := New(Config{
		Nodes: 6, Sessions: 90, Seed: 5, Epochs: 10,
		Plan: killPlan(t, "node-kill@120:node=node2,dur=120;node-kill@180:node=node4,dur=600"),
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		owned := map[*session]bool{}
		for _, nd := range c.nodes {
			if !nd.alive && len(nd.sessions) != 0 {
				t.Fatalf("%s: dead %s owns %d sessions", when, nd.name, len(nd.sessions))
			}
			if !slices.IsSortedFunc(nd.sessions, byStep) {
				t.Fatalf("%s: %s sessions out of step order", when, nd.name)
			}
			for _, s := range nd.sessions {
				if owned[s] || s.nd != nd {
					t.Fatalf("%s: %s on %s: owned twice %t, points at its node %t", when, s.name, nd.name, owned[s], s.nd == nd)
				}
				owned[s] = true
			}
		}
		if len(owned) != c.cfg.Sessions {
			t.Fatalf("%s: %d of %d sessions placed", when, len(owned), c.cfg.Sessions)
		}
	}
	check("after New")
	r, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Kills != 2 || r.Migrations <= 30 {
		t.Fatalf("plan did not kill, re-place and settle back: %+v", r)
	}
	check("after Run")
}

// settle moves the highest-id idle session off the most loaded node, as it
// did while nodes kept their sessions in id order: through kills,
// revivals and steps stalled across barriers, every idle session a source
// node keeps has a lower id than each session settle moved off it, and
// busy ones with higher ids stay.
func TestSettleMovesHighestIDIdle(t *testing.T) {
	c, err := New(Config{
		Nodes: 6, Sessions: 120, Seed: 5, Epochs: 12,
		Plan: killPlan(t, "stuck@100:dev=ssd,dur=150; node-kill@120:node=node2,dur=120; node-kill@180:node=node4,dur=180"),
	})
	if err != nil {
		t.Fatal(err)
	}
	moves, pinned := 0, 0
	for e := 0; e < c.cfg.Epochs; e++ {
		t0 := float64(e) * epochSec
		c.applyPlan(e, t0)
		before := map[*session]*node{}
		for _, nd := range c.nodes {
			for _, s := range nd.sessions {
				before[s] = nd
			}
		}
		if c.topoDirty {
			c.settle(t0)
		}
		lowest := map[*node]int{} // the lowest id settle moved off each node
		for s, src := range before {
			if s.nd != src {
				moves++
				if lo, ok := lowest[src]; !ok || s.id < lo {
					lowest[src] = s.id
				}
			}
		}
		for src, lo := range lowest {
			for _, s := range src.sessions {
				switch {
				case before[s] != src || s.id < lo:
				case s.busy:
					pinned++
				default:
					t.Fatalf("epoch %d: %s kept idle %s but moved sess%d", e, src.name, s.name, lo)
				}
			}
		}
		if err := c.epoch(e, (*node).scheduleSteps); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d moves, %d busy sessions kept over a lower id moved", moves, pinned)
	if moves == 0 || pinned == 0 {
		t.Fatalf("%d moves, %d busy sessions kept; want both > 0", moves, pinned)
	}
}
