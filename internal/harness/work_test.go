package harness

import (
	"testing"

	"tango/internal/analytics"
	"tango/internal/core"
	"tango/internal/resil"
	"tango/internal/weightfn"
)

// TestWorkCeilings holds node_faulted's shape — two sessions on one node
// under the mass fault plan, the high-priority one prefetching and hedged
// through the resilience control plane — under ceilings on the engine's
// work per session step (sim.Engine.Work). Like the allocation ceilings
// they are exact counts, lowered with the figures and never raised
// (docs/performance.md, "Work per step").
func TestWorkCeilings(t *testing.T) {
	cfg := smallCfg()
	cfg.Steps = 120
	h := appHierarchy(analytics.XGCApp(), cfg, defaultOpts())
	scen := NewScenario("faulted", 3)
	if err := scen.ArmFaults(MassFaultPlan(cfg), nil); err != nil {
		t.Fatal(err)
	}
	sc := core.Config{ErrorControl: true, Bound: 0.01, RefitEvery: 10}
	hi, lo := sc, sc
	hi.Policy, hi.Priority = core.CrossLayerPrefetch, weightfn.PriorityHigh
	hi.Resil = resil.New(scen.Node.Engine(), resil.Options{Hedge: resil.HedgeConfig{Enabled: true}})
	lo.Policy, lo.Priority = core.CrossLayer, weightfn.PriorityLow
	a, b := scen.launch(chaosSession, h, cfg, hi), scen.launch("batch", h, cfg, lo)
	scen.run(cfg.Steps, 3600)
	armed, queued, tombs, fired := scen.Node.Engine().Work()
	steps := float64(len(a.Stats()) + len(b.Stats()))
	ceil := [4]float64{29.03, 21.69, 1.63, 20.05}
	for i, n := range [4]int64{armed, queued, tombs, fired} {
		t.Logf("node_faulted: %s %.4f per step over %v steps, ceiling %.2f", workNames[i], float64(n)/steps, steps, ceil[i])
		if float64(n)/steps > ceil[i] {
			t.Errorf("node_faulted: %s %.4f per step, over its ceiling %.2f", workNames[i], float64(n)/steps, ceil[i])
		}
	}
}

var workNames = [4]string{"events armed", "events queued", "tombstones", "events fired from the queue"}
