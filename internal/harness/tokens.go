package harness

import (
	"fmt"

	"tango/internal/analytics"
	"tango/internal/coordinator"
	"tango/internal/core"
	"tango/internal/fault"
	"tango/internal/fleet"
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

// tokens evaluates the decentralized token-bucket weight controller
// (internal/tokenctl) against the central coordinator and the hybrid
// mode: two concurrent sessions (p=10 and p=1) per arm, each control
// mode run quiet, through a mass weight-write failure (coordinator
// loss), and through a seeded cgroup-fault chaos schedule. The fleet
// arms in the notes run the same three modes through a node-kill plan.
func tokens(cfg Config) *Result {
	r := &Result{
		ID:    "tokens",
		Title: "Extension: decentralized token-bucket weight control",
		Header: []string{"arm", "interactive I/O (s)", "batch I/O (s)", "bound viol",
			"borrows", "repays", "recalls"},
	}
	h := appHierarchy(analytics.XGCApp(), cfg, defaultOpts())
	mandatory := rung(h, 0.01)

	modes := []tokenctl.Mode{tokenctl.ModeCentral, tokenctl.ModeTokens, tokenctl.ModeHybrid}
	massFail, chaosPlan := tokensMassFailPlan(cfg), tokensChaosPlan(cfg)
	type arm struct {
		mode     tokenctl.Mode
		planName string
		plan     *fault.Plan
	}
	var arms []arm
	for _, mode := range modes {
		arms = append(arms,
			arm{mode, "quiet", nil},
			arm{mode, "weight-fail", massFail},
			arm{mode, "chaos", chaosPlan})
	}
	addRows(r, arms, func(a arm) []string {
		scen := NewScenario(fmt.Sprintf("tok-%s-%s", a.mode, a.planName), 4)
		if a.plan != nil {
			if err := scen.ArmFaults(a.plan, nil); err != nil {
				panic(fmt.Sprintf("harness: arming faults: %v", err))
			}
		}
		var sc core.Config
		switch a.mode {
		case tokenctl.ModeCentral:
			sc.Allocator = coordinator.New()
		case tokenctl.ModeTokens:
			sc.Tokens = tokenctl.New(scen.Node.Engine().Now, tokenctl.Options{})
		case tokenctl.ModeHybrid:
			sc.Tokens = tokenctl.New(scen.Node.Engine().Now, tokenctl.Options{EpochSec: tokensHybridEpoch})
		}
		p := scen.runPair(h, cfg, sc, 10, 1)
		viol := boundViolations(measured(p.interactive, cfg.SkipWarmup), mandatory) +
			boundViolations(measured(p.batch, cfg.SkipWarmup), mandatory)
		borrows, repays, recalls := "-", "-", "-"
		if sc.Tokens != nil {
			st := sc.Tokens.Stats()
			borrows = fmt.Sprintf("%d", st.Borrows)
			repays = fmt.Sprintf("%d", st.Repays)
			recalls = fmt.Sprintf("%d", st.Recalls)
		}
		return []string{a.mode.String() + "/" + a.planName,
			fmtS(p.interactive.Summary(cfg.SkipWarmup).MeanIO),
			fmtS(p.batch.Summary(cfg.SkipWarmup).MeanIO),
			fmt.Sprintf("%d", viol), borrows, repays, recalls}
	})
	// Fleet arms: the same three control modes through a node-kill plan
	// (4 nodes, 24 sessions; max(1, N/10) nodes out at the epoch-4
	// barrier). The per-node mode must survive the kill/rebuild cycle.
	notes := fanOut("tokens/fleet", modes, func(mode tokenctl.Mode) string {
		rep := runFleet(fleet.Config{
			Nodes: 4, Sessions: 24, Seed: cfg.Seed,
			Plan:    fleetKillPlan(4),
			Control: mode,
		})
		return fmt.Sprintf("fleet/%s under node-kill: %s; ledger borrows=%d repays=%d recalls=%d",
			mode, rep.TotalsLine(), rep.Tokens.Borrows, rep.Tokens.Repays, rep.Tokens.Recalls)
	})
	for _, note := range notes {
		r.Notef("%s", note)
	}
	r.Notef("Modes: central = coordinator.Allocator global rescale; tokens = per-session buckets with bounded borrowing from idle peers; hybrid = tokens with a coordinator-style resync every %d s.", tokensHybridEpoch)
	r.Notef("weight-fail arm fails every session cgroup's weight writes at once for 30%% of the run (coordinator loss): all modes must keep serving on in-force weights with zero bound violations.")
	return r
}
