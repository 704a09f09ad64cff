package core

import "testing"

// TestWorkCeilings holds BenchmarkSessionStep's node_quiet scenario under
// ceilings on the engine's work per session step (sim.Engine.Work): events
// armed, put in the queue, drained as stopped and fired from the queue.
// Like the allocation ceilings they are exact counts, lowered with the
// figures and never raised (docs/performance.md, "Work per step").
func TestWorkCeilings(t *testing.T) {
	node, s := quietScenario(t, testHierarchy(t))
	if err := node.Engine().Run(600*period + 600); err != nil {
		t.Fatal(err)
	}
	armed, queued, tombs, fired := node.Engine().Work()
	steps := float64(len(s.Stats()))
	ceil := [4]float64{27.11, 19.15, 1.12, 18.02}
	for i, n := range [4]int64{armed, queued, tombs, fired} {
		t.Logf("node_quiet: %s %.4f per step over %v steps, ceiling %.2f", workNames[i], float64(n)/steps, steps, ceil[i])
		if float64(n)/steps > ceil[i] {
			t.Errorf("node_quiet: %s %.4f per step, over its ceiling %.2f", workNames[i], float64(n)/steps, ceil[i])
		}
	}
}

var workNames = [4]string{"events armed", "events queued", "tombstones", "events fired from the queue"}
