package fleet

import (
	"fmt"
	"runtime"
	"testing"

	"tango/internal/runpool"
	"tango/internal/trace"
)

// TestWorkCeilings holds the fleet shape — 20 nodes, 2,000 sessions and 8
// epochs at seed 42 — under ceilings on the engine work per session step,
// summed over the node engines (sim.Engine.Work): events armed, put in the
// queue, drained as stopped and fired from the queue. The counts are the
// same at runpool width 1 and 4 and at GOMAXPROCS 1 and 2. Like the
// allocation ceilings they are exact, lowered with the figures and never
// raised (docs/performance.md, "Work per step").
func TestWorkCeilings(t *testing.T) {
	defer runpool.SetWorkers(runpool.Workers())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first [4]int64
	steps := 0.0
	for i, at := range []struct{ procs, width int }{{1, 1}, {2, 4}, {1, 4}, {2, 1}} {
		runtime.GOMAXPROCS(at.procs)
		runpool.SetWorkers(at.width)
		c, err := New(Config{Nodes: 20, Sessions: 2000, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		var got [4]int64
		for _, nd := range c.nodes {
			armed, queued, tombs, fired := nd.cn.Engine().Work()
			got[0], got[1], got[2], got[3] = got[0]+armed, got[1]+queued, got[2]+tombs, got[3]+fired
		}
		if i == 0 {
			first, steps = got, float64(rep.Sessions*rep.Epochs-rep.SkippedSteps)
		} else if got != first {
			t.Fatalf("GOMAXPROCS %d, width %d: counts %v, at 1 and 1 %v", at.procs, at.width, got, first)
		}
	}
	ceil := [4]float64{13.31, 9.43, 0.68, 8.75}
	for i, n := range first {
		t.Logf("fleet: %s %.4f per step over %v steps, ceiling %.2f", workNames[i], float64(n)/steps, steps, ceil[i])
		if float64(n)/steps > ceil[i] {
			t.Errorf("fleet: %s %.4f per step, over its ceiling %.2f", workNames[i], float64(n)/steps, ceil[i])
		}
	}
	// settle's node visits per migration it makes (heap entries read, the
	// seeding pass included) at the same shape with two nodes killed and
	// revived: the index-order scan read every alive node per migration.
	var visits, moves int
	for i, at := range []struct{ procs, width int }{{1, 1}, {2, 4}, {1, 4}, {2, 1}} {
		runtime.GOMAXPROCS(at.procs)
		runpool.SetWorkers(at.width)
		c, err := New(Config{Nodes: 20, Sessions: 2000, Seed: 42, Trace: trace.New(0),
			Plan: killPlan(t, "node-kill@120:node=node3,dur=120; node-kill@180:node=node11,dur=120")})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		settled := 0
		for _, ev := range c.rec.Filter(trace.KindMigrate) {
			var n int
			if _, err := fmt.Sscanf(ev.Msg(), "moved=%d", &n); err != nil {
				t.Fatal(err)
			}
			settled += n
		}
		if i == 0 {
			visits, moves = c.visits, settled
		} else if c.visits != visits || settled != moves {
			t.Fatalf("GOMAXPROCS %d, width %d: %d visits over %d migrations, at 1 and 1 %d over %d",
				at.procs, at.width, c.visits, settled, visits, moves)
		}
	}
	const visitCeil = 2.38
	t.Logf("fleet: settle visits %.4f nodes per migration over %d migrations, ceiling %.2f", float64(visits)/float64(moves), moves, visitCeil)
	if float64(visits)/float64(moves) > visitCeil {
		t.Errorf("fleet: settle visits %.4f nodes per migration, over its ceiling %.2f", float64(visits)/float64(moves), visitCeil)
	}
}

var workNames = [4]string{"events armed", "events queued", "tombstones", "events fired from the queue"}
