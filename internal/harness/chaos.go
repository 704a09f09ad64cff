package harness

import (
	"fmt"

	"tango/internal/analytics"
	"tango/internal/core"
	"tango/internal/fault"
	"tango/internal/refactor"
	"tango/internal/resil"
	"tango/internal/trace"
)

// chaosSession is the fixed session name the chaos plan's cgroup faults
// target, shared by every policy run so one plan applies to all.
const chaosSession = "analytics"

// ChaosPlan is the deterministic fault schedule the chaos experiment
// replays identically for every policy: one event of every fault class,
// drawn from the config seed against the standard scenario (HDD capacity
// tier, the analytics session's cgroup, the first three Table IV
// interferers).
func ChaosPlan(cfg Config) *fault.Plan {
	cfg = cfg.WithDefaults()
	plan, err := fault.Generate(cfg.Seed, fault.GenerateOptions{
		Horizon:     float64(cfg.Steps) * 60,
		Device:      "hdd",
		Cgroup:      chaosSession,
		Interferers: []string{"noise1", "noise2", "noise3"},
		Events:      9,
	})
	if err != nil {
		panic(fmt.Sprintf("harness: chaos plan: %v", err))
	}
	return plan
}

// faultedRun is one chaosSession run replayed through a fault plan.
type faultedRun struct {
	sess     *core.Session
	rc       *resil.Controller // nil: the session ran on its node's adhoc controller
	injected int               // faults the injector fired
	unpaired int               // faults left without a recorded recovery action
}

// runFaulted replays plan against policy pol (NRMSE 0.01, p=10) on a fresh
// three-interferer scenario with a trace recorder attached, recovering
// through a resil.Controller when withResil is set. RefitEvery 10 keeps
// the recovery cadence dense enough that a refit (periodic or
// regime-triggered) lands after the last scheduled fault for any step
// count divisible by 10.
func runFaulted(scenName string, h *refactor.Hierarchy, cfg Config, plan *fault.Plan, pol core.Policy, withResil, hedge bool) faultedRun {
	rec := trace.New(32768)
	scen := NewScenario(scenName, 3)
	sc := core.Config{
		Policy: pol, ErrorControl: true, Bound: 0.01, Priority: 10,
		RefitEvery: 10, Trace: rec,
	}
	if withResil {
		sc.Resil = resil.New(scen.Node.Engine(), resil.Options{
			Trace: rec,
			Hedge: resil.HedgeConfig{Enabled: hedge},
		})
	}
	if err := scen.ArmFaults(plan, rec); err != nil {
		panic(fmt.Sprintf("harness: arming faults: %v", err))
	}
	sess := runOnScenario(scen, chaosSession, h, cfg, sc)
	return faultedRun{sess, sc.Resil, scen.Injector.Injected(), len(fault.Unpaired(rec.Events()))}
}

// chaos runs the four policies through an identical fault schedule —
// device degradations, cgroup faults, and workload churn — and reports
// what each salvaged: perceived bandwidth, retries spent, steps that
// shed above-bound augmentation, prescribed-bound violations (always 0:
// mandatory data retries through faults), and faults left without a
// recorded recovery action.
func chaos(cfg Config) *Result {
	plan := ChaosPlan(cfg)
	r := &Result{
		ID:     "chaos",
		Title:  "Fault injection and cross-layer recovery (XGC)",
		Header: []string{"policy", "mean I/O (s)", "mean BW MB/s", "retries", "degraded steps", "bound viol", "faults", "unpaired"},
	}
	h := appHierarchy(analytics.XGCApp(), cfg, defaultOpts())
	mandatory := rung(h, 0.01)
	// ExtendedPolicies adds cross-layer+prefetch: pre-staged fast-tier
	// data keeps serving through capacity-tier bandwidth collapses, so
	// the cache variant should salvage more perceived bandwidth. Each
	// policy replays the same immutable plan on its own scenario, so the
	// runs are independent pool jobs.
	addRows(r, core.ExtendedPolicies(), func(pol core.Policy) []string {
		run := runFaulted(fmt.Sprintf("chaos-%d", int(pol)), h, cfg, plan, pol, false, false)
		sum := run.sess.Summary(cfg.SkipWarmup)
		retries, degraded := 0, 0
		for _, st := range run.sess.Stats() {
			retries += st.Retries
			if st.Degraded {
				degraded++
			}
		}
		return []string{pol.String(), fmtS(sum.MeanIO), fmtMB(sum.MeanBW),
			fmt.Sprintf("%d", retries), fmt.Sprintf("%d", degraded),
			fmt.Sprintf("%d", boundViolations(run.sess.Stats(), mandatory)),
			fmt.Sprintf("%d", run.injected),
			fmt.Sprintf("%d", run.unpaired)}
	})
	r.Notef("Identical fault plan per policy: %s", plan)
	r.Notef("Recovery paths: staging retries reads with backoff and sheds only above-bound augmentation; the controller refits on sustained misprediction; failed weight writes are tolerated and re-applied.")
	return r
}
