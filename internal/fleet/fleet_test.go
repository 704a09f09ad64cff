package fleet

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"tango/internal/fault"
	"tango/internal/runpool"
	"tango/internal/tokenctl"
	"tango/internal/trace"
)

func TestSingleNodeSmoke(t *testing.T) {
	c, err := New(Config{Nodes: 1, Sessions: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.AggMBps <= 0 {
		t.Fatalf("no throughput: %+v", r)
	}
	if r.Kills != 0 || r.Migrations != 0 {
		t.Fatalf("single quiet node killed/migrated: %+v", r)
	}
	if r.Store.EgressBytes <= 0 {
		t.Fatal("sessions must warm from the store")
	}
	if r.RecoveryFrac != 1 {
		t.Fatalf("recovery %v without a kill", r.RecoveryFrac)
	}
}

func TestNoFaultZeroViolationsZeroMigrations(t *testing.T) {
	c, err := New(Config{Nodes: 4, Sessions: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Violations != 0 || r.ViolNodes != 0 {
		t.Fatalf("quiet fleet violated bounds: %+v", r)
	}
	if r.Migrations != 0 {
		t.Fatalf("quiet fleet migrated %d sessions", r.Migrations)
	}
	if r.SkippedSteps != 0 {
		t.Fatalf("quiet fleet skipped %d steps", r.SkippedSteps)
	}
	// Every session steps once per epoch: aggregate epoch throughput must
	// be flat once warm (cold epochs pay the store fetch but still
	// complete the same step bytes; summation order varies per epoch, so
	// compare to float tolerance, not bitwise).
	for e := 1; e < len(r.EpochMBps); e++ {
		if d := r.EpochMBps[e] - r.EpochMBps[0]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("epoch throughput drifted: %v", r.EpochMBps)
		}
	}
}

func TestPlacementSpreadsSessions(t *testing.T) {
	c, err := New(Config{Nodes: 8, Sessions: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range c.nodes {
		if len(nd.sessions) == 0 {
			t.Fatalf("node %s got no sessions", nd.name)
		}
	}
	// Cost-based placement: per-node load (frontend fraction) stays
	// within a factor of 2 of the mean.
	var total float64
	for _, nd := range c.nodes {
		total += nd.load
	}
	mean := total / float64(len(c.nodes))
	for _, nd := range c.nodes {
		if nd.load > 2*mean {
			t.Fatalf("node %s overloaded: %.4f vs mean %.4f", nd.name, nd.load, mean)
		}
	}
}

func killPlan(t *testing.T, spec string) *fault.Plan {
	t.Helper()
	p, err := fault.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNodeKillRebalanceAndRecovery(t *testing.T) {
	rec := trace.New(4096)
	cfg := Config{
		Nodes: 4, Sessions: 32, Seed: 11,
		Plan:  killPlan(t, "node-kill@240:node=node1,dur=120"),
		Trace: rec,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Kills != 1 {
		t.Fatalf("kills %d", r.Kills)
	}
	// The killed node's sessions restart cold on survivors, then migrate
	// back after revival: both count as migrations.
	if r.Migrations < 8 {
		t.Fatalf("expected orphan restarts plus settle-back, got %d migrations", r.Migrations)
	}
	if r.RecoveryFrac < 0.8 {
		t.Fatalf("fleet recovered only %.0f%% of pre-kill throughput", 100*r.RecoveryFrac)
	}
	// The revived node must be repopulated by the end.
	if got := len(c.nodes[1].sessions); got == 0 {
		t.Fatal("revived node never repopulated")
	}
	kinds := map[string]int{}
	for _, ev := range rec.Events() {
		kinds[ev.Kind]++
	}
	if kinds[trace.KindPlace] == 0 || kinds[trace.KindMigrate] == 0 ||
		kinds[trace.KindEgress] == 0 || kinds[trace.KindFault] < 2 {
		t.Fatalf("missing barrier events: %v", kinds)
	}
	// Migration traffic must show up in the store ledger as ingress.
	if r.Store.IngressBytes <= 0 {
		t.Fatal("migration drains must write to the store")
	}
}

// A fleet run leaves no goroutine behind: no step runs on a process, so
// every node engine — surviving, killed and revived — holds no live
// process at any barrier, and once the run's node windows have drained,
// the goroutine count is back where it started, from the first run on,
// with one node window at a time and with two.
func TestRunLeavesNoGoroutines(t *testing.T) {
	prev := runpool.Workers()
	defer runpool.SetWorkers(prev)
	for _, workers := range []int{1, 2} {
		runpool.SetWorkers(workers)
		before := runtime.NumGoroutine()
		c, err := New(Config{
			Nodes: 4, Sessions: 32, Seed: 11,
			Plan: killPlan(t, "node-kill@240:node=node1,dur=120"),
		})
		if err != nil {
			t.Fatal(err)
		}
		runEpochs(t, c, (*node).scheduleSteps, func(e int) {
			for _, nd := range c.nodes {
				if n := nd.cn.Engine().LiveProcs(); n != 0 {
					t.Fatalf("width %d, epoch %d: %s has %d live procs", workers, e, nd.name, n)
				}
			}
		})
		// runpool's workers exit once their queue drains.
		for i := 0; i < 200 && runtime.NumGoroutine() > before; i++ {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("width %d: %d goroutines before the run, %d after", workers, before, n)
		}
	}
}

func TestKillDuringWarmupNoPanic(t *testing.T) {
	// A kill landing at or before the warm-up boundary used to slice
	// epochMBps[WarmEpochs:killEpoch] with low > high and panic; there is
	// no measured pre-kill baseline, so recovery must default to 1.
	c, err := New(Config{Nodes: 3, Sessions: 9, Seed: 13,
		Plan: killPlan(t, "node-kill@0:node=node1,dur=120")})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Kills != 1 {
		t.Fatalf("kills %d", r.Kills)
	}
	if r.RecoveryFrac != 1 {
		t.Fatalf("no measured pre-kill baseline: recovery must default to 1, got %v", r.RecoveryFrac)
	}
}

func TestHarvestCountsViolationsOnce(t *testing.T) {
	// viol is a per-epoch accumulator: a violation harvested in epoch k
	// must not be re-counted at every later barrier.
	c, err := New(Config{Nodes: 2, Sessions: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.nodes[1].viol = 1
	c.harvest(0)
	c.harvest(1)
	if c.violTotal != 1 {
		t.Fatalf("violation recounted across epochs: total %d", c.violTotal)
	}
	if c.nodes[1].viol != 0 {
		t.Fatal("harvest must reset the per-epoch violation accumulator")
	}
	r := c.report()
	if r.Violations != 1 || r.ViolNodes != 1 {
		t.Fatalf("report %d violations on %d nodes, want 1 on 1", r.Violations, r.ViolNodes)
	}
}

func TestShortRunsAndZeroWarmup(t *testing.T) {
	// Epochs <= 2 must construct: the warm-up is min(2, Epochs-1)...
	c, err := New(Config{Nodes: 1, Sessions: 2, Seed: 1, Epochs: 2})
	if err != nil {
		t.Fatalf("Epochs=2 must construct: %v", err)
	}
	if c.warm != 1 {
		t.Fatalf("warm epochs should clamp to Epochs-1, got %d", c.warm)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// ...so a single epoch has no warm-up at all.
	c2, err := New(Config{Nodes: 1, Sessions: 2, Seed: 1, Epochs: 1})
	if err != nil {
		t.Fatalf("Epochs=1 must construct: %v", err)
	}
	if c2.warm != 0 {
		t.Fatalf("a single epoch should have no warm-up, got %d", c2.warm)
	}
	r, err := c2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.AggMBps <= 0 {
		t.Fatalf("single unwarmed epoch must still measure throughput: %+v", r)
	}
}

func TestKillUnknownNodeSkips(t *testing.T) {
	// node9 does not exist; the rest are misspellings of the live node1
	// that a lax parse would resolve to it.
	for _, target := range []string{"node9", "node1x", "node+1", "node01", "node-1", "node"} {
		rec := trace.New(4096)
		c, err := New(Config{Nodes: 2, Sessions: 4, Seed: 5, Trace: rec,
			Plan: &fault.Plan{Events: []fault.Event{{At: 60, Kind: fault.NodeKill, Target: target, Duration: 60}}}})
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.Kills != 0 || r.Migrations != 0 {
			t.Errorf("target %q must be a no-op: %+v", target, r)
		}
		want := "skip node-kill node=" + target + " (no such live node)"
		found := false
		for _, ev := range rec.Events() {
			found = found || (ev.Kind == trace.KindFault && ev.Msg() == want)
		}
		if !found {
			t.Errorf("target %q: trace lacks %q", target, want)
		}
	}
}

// TestKillLastLiveNodeSkips: a plan that kills every live node used to
// panic in place ("no alive nodes to place on"); the kill that would leave
// no survivor is skipped and recorded instead, and the run completes. The
// second plan is the same-barrier case: node1's kill at 130 s is applied
// at the 180 s barrier, before node0's revival there, so it is skipped too.
func TestKillLastLiveNodeSkips(t *testing.T) {
	for _, node0Dur := range []float64{600, 60} {
		rec := trace.New(4096)
		c, err := New(Config{Nodes: 2, Sessions: 4, Seed: 5, Trace: rec,
			Plan: &fault.Plan{Events: []fault.Event{
				{At: 120, Kind: fault.NodeKill, Target: "node0", Duration: node0Dur},
				{At: 130, Kind: fault.NodeKill, Target: "node1", Duration: 60},
			}}})
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.Kills != 1 {
			t.Errorf("node0 down %gs: kills = %d, want 1 (the second would leave no live node)", node0Dur, r.Kills)
		}
		want := "skip node-kill node=node1 (would leave no live node)"
		found := false
		for _, ev := range rec.Events() {
			found = found || (ev.Kind == trace.KindFault && ev.Msg() == want)
		}
		if !found {
			t.Errorf("node0 down %gs: trace lacks %q", node0Dur, want)
		}
	}
}

func TestNodeIndex(t *testing.T) {
	for _, tc := range []struct {
		name string
		idx  int
		ok   bool
	}{
		{"node0", 0, true},
		{"node3", 3, true},
		{"node999", 999, true},
		{"node-3", -3, true}, // well-formed; the caller's range check rejects it
		{"node", 0, false},
		{"node3x", 0, false},
		{"node+3", 0, false},
		{"node03", 0, false},
		{"node 3", 0, false},
		{"node3 ", 0, false},
		{"Node3", 0, false},
		{"3", 0, false},
		{"", 0, false},
	} {
		if idx, ok := nodeIndex(tc.name); idx != tc.idx || ok != tc.ok {
			t.Errorf("nodeIndex(%q) = %d, %v; want %d, %v", tc.name, idx, ok, tc.idx, tc.ok)
		}
	}
}

func TestDeviceFaultArmsOnNodes(t *testing.T) {
	// A local SSD bandwidth collapse on every node: throughput holds (the
	// store path dominates cold epochs) and nothing crashes.
	c, err := New(Config{Nodes: 2, Sessions: 8, Seed: 9,
		Plan: killPlan(t, "bw-collapse@70:dev=ssd,factor=0.25,dur=30")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// runReport runs one fixed faulted config at the given worker width and
// returns the report plus the trace event stream.
func runReport(t *testing.T, workers int) (*Report, []trace.Event) {
	t.Helper()
	prev := runpool.Workers()
	runpool.SetWorkers(workers)
	defer runpool.SetWorkers(prev)
	rec := trace.New(8192)
	c, err := New(Config{
		Nodes: 5, Sessions: 30, Seed: 17,
		Plan:  killPlan(t, "node-kill@240:node=node2,dur=120"),
		Trace: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r, rec.Events()
}

// widths are the runpool widths and GOMAXPROCS settings the determinism
// tests compare with width 1 at GOMAXPROCS 1; each worker lends its own
// step calendar, so every width runs a different calendar per node.
var widths = []struct{ procs, width int }{{2, 4}, {1, 4}, {2, 2}, {1, 3}, {2, 1}}

func TestClusterDeterministicAcrossWorkerWidths(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r1, ev1 := runReport(t, 1)
	for _, at := range widths {
		runtime.GOMAXPROCS(at.procs)
		r, ev := runReport(t, at.width)
		if !reflect.DeepEqual(r1, r) {
			t.Fatalf("GOMAXPROCS %d, width %d: reports diverge:\n%+v\n%+v", at.procs, at.width, r1, r)
		}
		if !reflect.DeepEqual(ev1, ev) {
			t.Fatalf("GOMAXPROCS %d, width %d: trace streams diverge: %d vs %d events", at.procs, at.width, len(ev1), len(ev))
		}
	}
}

// TestTokenModeSurvivesNodeKill: with decentralized token control the
// fleet keeps the kill/cold-restart/settle-back lifecycle intact — the
// rebuilt node gets a fresh controller of the same mode, orphaned
// buckets are dropped with their node, and the ledger shows traffic.
func TestTokenModeSurvivesNodeKill(t *testing.T) {
	for _, mode := range []tokenctl.Mode{tokenctl.ModeTokens, tokenctl.ModeHybrid} {
		c, err := New(Config{
			Nodes: 4, Sessions: 32, Seed: 11,
			Plan:    killPlan(t, "node-kill@240:node=node1,dur=120"),
			Control: mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.Kills != 1 || r.Migrations < 8 {
			t.Fatalf("%v: kills=%d migrations=%d", mode, r.Kills, r.Migrations)
		}
		if r.RecoveryFrac < 0.8 {
			t.Fatalf("%v: recovered only %.0f%% of pre-kill throughput", mode, 100*r.RecoveryFrac)
		}
		if r.Tokens.Writes == 0 {
			t.Fatalf("%v: token controllers issued no weight writes", mode)
		}
		for _, nd := range c.nodes {
			if nd.alloc != nil || nd.tok == nil {
				t.Fatalf("%v: node %s has wrong controller after rebuild", mode, nd.name)
			}
			for _, s := range nd.sessions {
				if s.tb == nil || nd.tok.Lookup(s.name) != s.tb {
					t.Fatalf("%v: session %s bucket not attached to its node's controller", mode, s.name)
				}
			}
		}
	}
}

// TestTokenModeDeterministicAcrossWorkerWidths: the token arm keeps the
// fleet's byte-identical determinism contract at any -parallel width.
func TestTokenModeDeterministicAcrossWorkerWidths(t *testing.T) {
	run := func(workers int) *Report {
		prev := runpool.Workers()
		runpool.SetWorkers(workers)
		defer runpool.SetWorkers(prev)
		c, err := New(Config{
			Nodes: 5, Sessions: 30, Seed: 17,
			Plan:    killPlan(t, "node-kill@240:node=node2,dur=120"),
			Control: tokenctl.ModeTokens,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r1 := run(1)
	for _, at := range widths {
		runtime.GOMAXPROCS(at.procs)
		if r := run(at.width); !reflect.DeepEqual(r1, r) {
			t.Fatalf("GOMAXPROCS %d, width %d: token-mode reports diverge:\n%+v\n%+v", at.procs, at.width, r1, r)
		}
	}
}
