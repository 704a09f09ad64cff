package harness

import (
	"fmt"

	"tango/internal/analytics"
	"tango/internal/coordinator"
	"tango/internal/core"
	"tango/internal/fault"
	"tango/internal/fleet"
	"tango/internal/runpool"
	"tango/internal/tokenctl"
)

// tokensHybridEpoch is the hybrid arm's resync period: token control
// with one coordinator-style rescale every five analysis steps.
const tokensHybridEpoch = 300

// tokensMassFailPlan fails every session cgroup's weight writes at once
// for a sustained window — the decentralized analog of losing the
// coordinator: no control write lands anywhere, and each arm must keep
// serving on the weights already in force.
func tokensMassFailPlan(cfg Config) *fault.Plan {
	horizon := float64(cfg.Steps) * 60
	at, dur := 0.4*horizon, 0.3*horizon
	return &fault.Plan{Events: []fault.Event{
		{At: at, Kind: fault.WeightFail, Target: "interactive", Duration: dur},
		{At: at, Kind: fault.WeightFail, Target: "batch", Duration: dur},
	}}
}

// tokensChaosPlan draws seed-deterministic cgroup faults (weight-fail /
// throttle-reset cycles) against the interactive session.
func tokensChaosPlan(cfg Config) *fault.Plan {
	plan, err := fault.Generate(cfg.Seed, fault.GenerateOptions{
		Horizon: float64(cfg.Steps) * 60,
		Cgroup:  "interactive",
		Events:  4,
	})
	if err != nil {
		panic(fmt.Sprintf("harness: tokens chaos plan: %v", err))
	}
	return plan
}

// Tokens evaluates the decentralized token-bucket weight controller
// (internal/tokenctl) against the central coordinator and the hybrid
// mode: two concurrent sessions (p=10 and p=1) per arm, each control
// mode run quiet, through a mass weight-write failure (coordinator
// loss), and through a seeded cgroup-fault chaos schedule. The fleet
// arms in the notes run the same three modes through a node-kill plan.
func Tokens(cfg Config) *Result {
	cfg = cfg.withDefaults()
	r := &Result{
		ID:    "tokens",
		Title: "Extension: decentralized token-bucket weight control",
		Header: []string{"arm", "interactive I/O (s)", "batch I/O (s)", "bound viol",
			"borrows", "repays", "recalls"},
	}
	app := analytics.XGCApp()
	h := appHierarchy(app, cfg, defaultOpts())
	const bound = 0.01
	mandatory, err := h.CursorForBound(bound)
	if err != nil {
		panic(err)
	}

	modes := []tokenctl.Mode{tokenctl.ModeCentral, tokenctl.ModeTokens, tokenctl.ModeHybrid}
	type planArm struct {
		name string
		plan func() *fault.Plan
	}
	planArms := []planArm{
		{"quiet", func() *fault.Plan { return nil }},
		{"weight-fail", func() *fault.Plan {
			if cfg.FaultPlan != nil {
				return cfg.FaultPlan
			}
			return tokensMassFailPlan(cfg)
		}},
		{"chaos", func() *fault.Plan { return tokensChaosPlan(cfg) }},
	}

	run := func(mode tokenctl.Mode, pa planArm) []string {
		scen := NewScenario(fmt.Sprintf("tok-%s-%s", mode, pa.name), 4)
		if plan := pa.plan(); plan != nil {
			scen.ArmFaults(plan, nil)
		}
		var alloc *coordinator.Allocator
		var ctl *tokenctl.Controller
		switch mode {
		case tokenctl.ModeCentral:
			alloc = coordinator.New()
		case tokenctl.ModeTokens:
			ctl = tokenctl.New(scen.Node.Engine().Now, tokenctl.Options{})
		case tokenctl.ModeHybrid:
			ctl = tokenctl.New(scen.Node.Engine().Now, tokenctl.Options{EpochSec: tokensHybridEpoch})
		}
		mk := func(name string, p float64) *core.Session {
			sess, err := core.NewSession(name, scen.Stage(h, cfg.DatasetMB), core.Config{
				Policy: core.CrossLayer, ErrorControl: true, Bound: bound,
				Priority: p, Steps: cfg.Steps, Allocator: alloc, Tokens: ctl,
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
		viol := 0
		for _, sess := range []*core.Session{interactive, batch} {
			for i, st := range sess.Stats() {
				if i >= cfg.SkipWarmup && st.Cursor < mandatory {
					viol++
				}
			}
		}
		borrows, repays, recalls := "-", "-", "-"
		if ctl != nil {
			st := ctl.Stats()
			borrows = fmt.Sprintf("%d", st.Borrows)
			repays = fmt.Sprintf("%d", st.Repays)
			recalls = fmt.Sprintf("%d", st.Recalls)
		}
		return []string{mode.String() + "/" + pa.name,
			fmtS(interactive.Summary(cfg.SkipWarmup).MeanIO),
			fmtS(batch.Summary(cfg.SkipWarmup).MeanIO),
			fmt.Sprintf("%d", viol), borrows, repays, recalls}
	}

	rows := make([]*runpool.Task[[]string], 0, len(modes)*len(planArms))
	for _, mode := range modes {
		for _, pa := range planArms {
			mode, pa := mode, pa
			rows = append(rows, runpool.Submit("tokens/"+mode.String()+"/"+pa.name,
				func() []string { return run(mode, pa) }))
		}
	}

	// Fleet arms: the same three control modes through a node-kill plan
	// (4 nodes, 24 sessions; max(1, N/10) nodes out at the epoch-4
	// barrier). The per-node mode must survive the kill/rebuild cycle.
	fleetRows := make([]*runpool.Task[string], len(modes))
	for i, mode := range modes {
		mode := mode
		fleetRows[i] = runpool.Submit("tokens/fleet/"+mode.String(), func() string {
			c, err := fleet.New(fleet.Config{
				Nodes: 4, Sessions: 24, Seed: cfg.Seed,
				Plan:    fleetKillPlan(4),
				Control: mode,
			})
			if err != nil {
				panic(err)
			}
			rep, err := c.Run()
			if err != nil {
				panic(err)
			}
			return fmt.Sprintf("fleet/%s under node-kill: %s; ledger borrows=%d repays=%d recalls=%d",
				mode, rep.TotalsLine(), rep.Tokens.Borrows, rep.Tokens.Repays, rep.Tokens.Recalls)
		})
	}

	for _, t := range rows {
		r.Add(t.Wait()...)
	}
	for _, t := range fleetRows {
		r.Notef("%s", t.Wait())
	}
	r.Notef("Modes: central = coordinator.Allocator global rescale; tokens = per-session buckets with bounded borrowing from idle peers; hybrid = tokens with a coordinator-style resync every %d s.", tokensHybridEpoch)
	r.Notef("weight-fail arm fails every session cgroup's weight writes at once for 30%% of the run (coordinator loss): all modes must keep serving on in-force weights with zero bound violations.")
	return r
}
