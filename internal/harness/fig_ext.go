package harness

import (
	"fmt"

	"tango/internal/analytics"
	"tango/internal/core"
	"tango/internal/refactor"
	"tango/internal/runpool"
)

// refactorHierarchy is a local alias keeping signatures short.
type refactorHierarchy = refactor.Hierarchy

// Coexist goes beyond the paper's single-analytics runs to its motivating
// scenario: several data analytics sharing one node. An interactive
// (p=10) and a batch (p=1) Tango session run concurrently against the
// Table IV interference; the weight function's priority term buys the
// interactive job lower latency without starving the batch job. A control
// run at equal priorities shows the differentiation comes from p.
func Coexist(cfg Config) *Result {
	cfg = cfg.withDefaults()
	r := &Result{
		ID:     "coexist",
		Title:  "Two concurrent Tango analytics (priority differentiation, NRMSE 0.01)",
		Header: []string{"configuration", "interactive mean I/O", "batch mean I/O", "interactive advantage"},
	}
	// Both sessions analyze the same XGC dataset so the only difference
	// is the priority (CFD's 0.01 rung is base-only at this decimation,
	// which would make the comparison apples-to-oranges).
	xgc := analytics.XGCApp()
	hx := appHierarchy(xgc, cfg, defaultOpts())
	hc := hx

	run := func(pInteractive, pBatch float64) (float64, float64) {
		scen := NewScenario("coexist", 4)
		mkSession := func(name string, h *refactorHierarchy, p float64) *core.Session {
			sess, err := core.NewSession(name, scen.Stage(h, cfg.DatasetMB), core.Config{
				Policy: core.CrossLayer, ErrorControl: true, Bound: 0.01,
				Priority: p, Steps: cfg.Steps,
			})
			if err != nil {
				panic(err)
			}
			if err := sess.Launch(scen.Node); err != nil {
				panic(err)
			}
			return sess
		}
		interactive := mkSession("interactive", hx, pInteractive)
		batch := mkSession("batch", hc, pBatch)
		scen.run(cfg.Steps, 3600)
		return interactive.Summary(cfg.SkipWarmup).MeanIO, batch.Summary(cfg.SkipWarmup).MeanIO
	}

	type pair struct{ i, b float64 }
	t1 := runpool.Submit("coexist/p10-vs-p1", func() pair { i, b := run(10, 1); return pair{i, b} })
	t2 := runpool.Submit("coexist/p5-vs-p5", func() pair { i, b := run(5, 5); return pair{i, b} })
	p1 := t1.Wait()
	r.Add("p=10 vs p=1", fmtS(p1.i), fmtS(p1.b), fmt.Sprintf("%.0f%%", 100*(1-p1.i/p1.b)))
	p2 := t2.Wait()
	r.Add("p=5 vs p=5 (control)", fmtS(p2.i), fmtS(p2.b), fmt.Sprintf("%.0f%%", 100*(1-p2.i/p2.b)))
	r.Notef("Both sessions keep the 0.01 NRMSE guarantee; priority only changes who waits.")
	return r
}

// AblationParallelReads evaluates the parallel-tier-read extension: each
// bucket's SSD and HDD segments transfer concurrently instead of
// coarse-tier-first. Total step time improves; the latency to the first
// usable accuracy can regress because the fast tier no longer completes
// first unconditionally.
func AblationParallelReads(cfg Config) *Result {
	cfg = cfg.withDefaults()
	r := &Result{
		ID:     "ablation-parallel",
		Title:  "Extension: parallel tier reads (XGC, p=10, NRMSE 0.001)",
		Header: []string{"read path", "mean I/O (s)", "latency to eps=0.01 (s)"},
	}
	app := analytics.XGCApp()
	h := appHierarchy(app, cfg, defaultOpts())
	var rows []*runpool.Task[[]string]
	for _, parallel := range []bool{false, true} {
		label := "sequential (Algorithm 1)"
		if parallel {
			label = "parallel per tier"
		}
		rows = append(rows, runpool.Submit("ablation-parallel/"+label, func() []string {
			sc := core.Config{
				Policy: core.CrossLayer, ErrorControl: true, Bound: 0.001,
				Priority: 10, ParallelTierReads: parallel,
			}
			sess := runOne(app.Name, 6, h, cfg, sc)
			return []string{label,
				fmtS(sess.Summary(cfg.SkipWarmup).MeanIO),
				fmtS(latencyToBound(sess, h, 0.01, cfg.SkipWarmup))}
		}))
	}
	for _, t := range rows {
		r.Add(t.Wait()...)
	}
	r.Notef("Parallel reads overlap tiers and shorten the step; sequential reads deliver the coarse (low-accuracy) data first.")
	return r
}
