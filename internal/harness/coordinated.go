package harness

import (
	"fmt"

	"tango/internal/analytics"
	"tango/internal/coordinator"
	"tango/internal/core"
	"tango/internal/runpool"
)

// Coordinated evaluates the node-level weight allocator extension: two
// concurrent Tango sessions (p=10 and p=1) run with independent weight
// requests versus with the coordinator rescaling concurrent requests to
// the full blkio range while preserving the priority ratio. Coordination
// buys both sessions more share against the interfering containers
// without collapsing the differentiation.
func Coordinated(cfg Config) *Result {
	cfg = cfg.withDefaults()
	r := &Result{
		ID:     "coordinated",
		Title:  "Node-level weight coordination across sessions (NRMSE 0.01)",
		Header: []string{"mode", "interactive mean I/O", "batch mean I/O", "interactive advantage"},
	}
	app := analytics.XGCApp()
	h := appHierarchy(app, cfg, defaultOpts())

	run := func(withAllocator bool) (float64, float64) {
		scen := NewScenario("coord", 4)
		var alloc *coordinator.Allocator
		if withAllocator {
			alloc = coordinator.New()
		}
		mk := func(name string, p float64) *core.Session {
			sess, err := core.NewSession(name, scen.Stage(h, cfg.DatasetMB), core.Config{
				Policy: core.CrossLayer, ErrorControl: true, Bound: 0.01,
				Priority: p, Steps: cfg.Steps, Allocator: alloc,
			})
			if err != nil {
				panic(err)
			}
			if err := sess.Launch(scen.Node); err != nil {
				panic(err)
			}
			return sess
		}
		interactive := mk("interactive", 10)
		batch := mk("batch", 1)
		scen.run(cfg.Steps, 3600)
		return interactive.Summary(cfg.SkipWarmup).MeanIO, batch.Summary(cfg.SkipWarmup).MeanIO
	}

	type pair struct{ i, b float64 }
	tu := runpool.Submit("coordinated/uncoordinated", func() pair { i, b := run(false); return pair{i, b} })
	tc := runpool.Submit("coordinated/coordinated", func() pair { i, b := run(true); return pair{i, b} })
	pu := tu.Wait()
	r.Add("uncoordinated", fmtS(pu.i), fmtS(pu.b), fmt.Sprintf("%.0f%%", 100*(1-pu.i/pu.b)))
	pc := tc.Wait()
	r.Add("coordinated", fmtS(pc.i), fmtS(pc.b), fmt.Sprintf("%.0f%%", 100*(1-pc.i/pc.b)))
	r.Notef("The allocator rescales concurrent desired weights so the largest uses the full blkio range with ratios preserved; both sessions gain share against the Table IV noise.")
	return r
}
