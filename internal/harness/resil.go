package harness

import (
	"fmt"

	"tango/internal/analytics"
	"tango/internal/core"
	"tango/internal/fault"
)

// MassFaultPlan is the resilience experiment's heavy schedule: a denser
// capacity-tier plan than ChaosPlan plus a fast-tier (SSD) plan, so both
// legs of a hedged read see faults and the retry budget is actually
// contended. Deterministic in cfg.Seed like every generated plan.
func MassFaultPlan(cfg Config) *fault.Plan {
	cfg = cfg.WithDefaults()
	horizon := float64(cfg.Steps) * 60
	hdd, err := fault.Generate(cfg.Seed, fault.GenerateOptions{
		Horizon:     horizon,
		Device:      "hdd",
		Cgroup:      chaosSession,
		Interferers: []string{"noise1", "noise2", "noise3"},
		Events:      15,
	})
	if err != nil {
		panic(fmt.Sprintf("harness: mass plan (hdd): %v", err))
	}
	ssd, err := fault.Generate(cfg.Seed+1, fault.GenerateOptions{
		Horizon: horizon,
		Device:  "ssd",
		Events:  5,
	})
	if err != nil {
		panic(fmt.Sprintf("harness: mass plan (ssd): %v", err))
	}
	return &fault.Plan{Events: append(hdd.Events, ssd.Events...)}
}

// resilExp compares fault recovery disciplines under identical fault plans:
// the ad-hoc arm — a session given no controller, which runs on its node's
// adhoc catalog (resil.NewAdhoc: the original fixed, unbudgeted retries) —
// the resilience control plane (policy-keyed retries, retry budgets,
// circuit breakers), and the control plane with forecast-driven hedged
// reads on top of the fast-tier cache. Two plans: the standard chaos schedule and a mass
// schedule that also faults the fast tier. The control plane must salvage
// at least the ad-hoc throughput while bounding retry amplification
// (attempts per operation) and never violating the prescribed bound.
func resilExp(cfg Config) *Result {
	r := &Result{
		ID:    "resil",
		Title: "Resilience control plane: ad-hoc vs policy-keyed vs hedged recovery",
		Header: []string{"recovery", "plan", "mean I/O (s)", "mean BW MB/s", "retries",
			"amp", "degraded", "bound viol", "breaker opens", "hedges", "unpaired"},
	}
	h := appHierarchy(analytics.XGCApp(), cfg, defaultOpts())
	mandatory := rung(h, 0.01)
	chaosPlan, massPlan := ChaosPlan(cfg), MassFaultPlan(cfg)
	type arm struct {
		name     string
		pol      core.Policy
		resil    bool
		hedge    bool
		planName string
		plan     *fault.Plan
	}
	var arms []arm
	for _, a := range []arm{
		// The hedged arm runs on the prefetch policy: hedging races the
		// cache's fast-tier copy against the capacity tier, so it needs
		// cached prefixes to exist.
		{name: "ad-hoc", pol: core.CrossLayer},
		{name: "policy-keyed", pol: core.CrossLayer, resil: true},
		{name: "hedged", pol: core.CrossLayerPrefetch, resil: true, hedge: true},
	} {
		a.planName, a.plan = "chaos", chaosPlan
		arms = append(arms, a)
		a.planName, a.plan = "mass", massPlan
		arms = append(arms, a)
	}
	addRows(r, arms, func(a arm) []string {
		run := runFaulted(fmt.Sprintf("resil-%s-%s", a.name, a.planName), h, cfg, a.plan, a.pol, a.resil, a.hedge)
		sum := run.sess.Summary(cfg.SkipWarmup)
		retries := 0
		for _, st := range run.sess.Stats() {
			retries += st.Retries
		}
		amp, degraded, opens, hedges := "-", "-", "-", "-"
		if run.rc != nil {
			tot := run.rc.Totals()
			retries = tot.Retries
			amp = fmt.Sprintf("%.3f", tot.Amplification())
			degraded = fmt.Sprintf("%d", tot.Degraded)
			opens = fmt.Sprintf("%d", tot.BreakerOpens)
			hedges = fmt.Sprintf("%d", tot.Hedges)
		}
		return []string{a.name, a.planName, fmtS(sum.MeanIO), fmtMB(sum.MeanBW),
			fmt.Sprintf("%d", retries), amp, degraded,
			fmt.Sprintf("%d", boundViolations(run.sess.Stats(), mandatory)), opens, hedges,
			fmt.Sprintf("%d", run.unpaired)}
	})
	r.Notef("Identical plans per arm — chaos: %s", chaosPlan)
	r.Notef("mass adds SSD-tier faults: %s", massPlan)
	r.Notef("Policy catalog: mandatory reads retry unbounded (budget-paced when dry), optional reads are deadlined at a minimum useful bandwidth and degrade, weight writes are breaker-gated per cgroup, hedged reads race the cache tier against the capacity tier during forecast-contended windows (see docs/resil.md).")
	return r
}
