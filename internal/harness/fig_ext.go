package harness

import (
	"tango/internal/analytics"
	"tango/internal/coordinator"
	"tango/internal/core"
)

// coexist goes beyond the paper's single-analytics runs to its motivating
// scenario: several data analytics sharing one node. An interactive
// (p=10) and a batch (p=1) Tango session run concurrently against the
// Table IV interference; the weight function's priority term buys the
// interactive job lower latency without starving the batch job. A control
// run at equal priorities shows the differentiation comes from p.
func coexist(cfg Config) *Result {
	r := &Result{
		ID:     "coexist",
		Title:  "Two concurrent Tango analytics (priority differentiation, NRMSE 0.01)",
		Header: []string{"configuration", "interactive mean I/O", "batch mean I/O", "interactive advantage"},
	}
	// Both sessions analyze the same XGC dataset so the only difference
	// is the priority (CFD's 0.01 rung is base-only at this decimation,
	// which would make the comparison apples-to-oranges).
	h := appHierarchy(analytics.XGCApp(), cfg, defaultOpts())
	type arm struct {
		label                string
		pInteractive, pBatch float64
	}
	arms := []arm{{"p=10 vs p=1", 10, 1}, {"p=5 vs p=5 (control)", 5, 5}}
	addRows(r, arms, func(a arm) []string {
		return NewScenario("coexist", 4).runPair(h, cfg, core.Config{}, a.pInteractive, a.pBatch).row(a.label, cfg.SkipWarmup)
	})
	r.Notef("Both sessions keep the 0.01 NRMSE guarantee; priority only changes who waits.")
	return r
}

// coordinated evaluates the node-level weight allocator extension: two
// concurrent Tango sessions (p=10 and p=1) run with independent weight
// requests versus with the coordinator rescaling concurrent requests to
// the full blkio range while preserving the priority ratio. Coordination
// buys both sessions more share against the interfering containers
// without collapsing the differentiation.
func coordinated(cfg Config) *Result {
	r := &Result{
		ID:     "coordinated",
		Title:  "Node-level weight coordination across sessions (NRMSE 0.01)",
		Header: []string{"mode", "interactive mean I/O", "batch mean I/O", "interactive advantage"},
	}
	h := appHierarchy(analytics.XGCApp(), cfg, defaultOpts())
	addRows(r, []string{"uncoordinated", "coordinated"}, func(label string) []string {
		var sc core.Config
		if label == "coordinated" {
			sc.Allocator = coordinator.New()
		}
		return NewScenario("coord", 4).runPair(h, cfg, sc, 10, 1).row(label, cfg.SkipWarmup)
	})
	r.Notef("The allocator rescales concurrent desired weights so the largest uses the full blkio range with ratios preserved; both sessions gain share against the Table IV noise.")
	return r
}

// ablationParallelReads evaluates the parallel-tier-read extension: each
// bucket's SSD and HDD segments transfer concurrently instead of
// coarse-tier-first. Total step time improves; the latency to the first
// usable accuracy can regress because the fast tier no longer completes
// first unconditionally.
func ablationParallelReads(cfg Config) *Result {
	r := &Result{
		ID:     "ablation-parallel",
		Title:  "Extension: parallel tier reads (XGC, p=10, NRMSE 0.001)",
		Header: []string{"read path", "mean I/O (s)", "latency to eps=0.01 (s)"},
	}
	app := analytics.XGCApp()
	h := appHierarchy(app, cfg, defaultOpts())
	addRows(r, []bool{false, true}, func(parallel bool) []string {
		label := "sequential (Algorithm 1)"
		if parallel {
			label = "parallel per tier"
		}
		sc := core.Config{
			Policy: core.CrossLayer, ErrorControl: true, Bound: 0.001,
			Priority: 10, ParallelTierReads: parallel,
		}
		sess := runOne(app.Name, 6, h, cfg, sc)
		return []string{label,
			fmtS(sess.Summary(cfg.SkipWarmup).MeanIO),
			fmtS(latencyToBound(sess, h, 0.01, cfg.SkipWarmup))}
	})
	r.Notef("Parallel reads overlap tiers and shorten the step; sequential reads deliver the coarse (low-accuracy) data first.")
	return r
}
