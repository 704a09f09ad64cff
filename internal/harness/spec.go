package harness

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"tango/internal/analytics"
	"tango/internal/cache"
	"tango/internal/cliutil"
	"tango/internal/core"
	"tango/internal/fault"
	"tango/internal/fleet"
	"tango/internal/refactor"
	"tango/internal/resil"
	"tango/internal/tokenctl"
	"tango/internal/trace"
	"tango/internal/weightfn"
	"tango/internal/workload"
)

// Spec is one tangosim run, a field per run flag (SpecFlags). Its text
// form is the argument list ParseSpec reads: any spec reproduces as
// `tangosim <args>`. Config carries -grid, -seed, -steps and -dataset,
// and Validate resolves -faults into FaultPlan.
type Spec struct {
	Config
	Policy, App, Faults, Control     string
	Noise, CacheMB, Nodes, Sessions  int
	Bound, Priority                  float64
	Prefetch, Resil, Hedge, Objstore bool

	// FaultPlan is the -faults plan Validate resolved (nil without one):
	// armed on the single-node scenario, or the fleet's node-kill plan.
	FaultPlan *fault.Plan

	pol  core.Policy // resolved by Validate
	app  analytics.App
	mode tokenctl.Mode
}

// SpecFlags registers tangosim's run flags on fs and returns the Spec
// they fill.
func SpecFlags(fs *flag.FlagSet) *Spec {
	s := &Spec{Config: Config{FleetScale: 1}}
	fs.StringVar(&s.Policy, "policy", "cross", "adaptation policy: none|storage|app|cross|prefetch")
	fs.IntVar(&s.Noise, "noise", 6, "number of Table IV interfering containers (0-6)")
	fs.StringVar(&s.App, "app", "XGC", "application: XGC|GenASiS|CFD")
	fs.IntVar(&s.GridN, "grid", 513, "analysis field side length")
	fs.Int64Var(&s.Seed, "seed", 42, "random seed")
	fs.IntVar(&s.Steps, "steps", 60, "analysis steps (60 s period each)")
	fs.Float64Var(&s.Bound, "bound", 0, "prescribed NRMSE bound (0 = no error control)")
	fs.Float64Var(&s.Priority, "priority", weightfn.PriorityHigh, "application priority (1, 5, 10)")
	fs.Float64Var(&s.DatasetMB, "dataset", 2048, "staged dataset size in MB")
	fs.StringVar(&s.Faults, "faults", "", "fault plan spec (docs/faults.md), e.g. 'bw-collapse@900:dev=hdd,factor=0.2,dur=120; leave@2400:name=noise1', or 'auto' for a seed-generated plan")
	fs.BoolVar(&s.Prefetch, "prefetch", false, "enable the fast-tier cache + idle-window prefetcher (implied by -policy prefetch)")
	fs.IntVar(&s.CacheMB, "cache", 0, "fast-tier cache capacity in MB (0 = default 512; implies -prefetch)")
	fs.BoolVar(&s.Resil, "resil", false, "route recovery through the resilience control plane (policy-keyed retries, budgets, breakers; docs/resil.md)")
	fs.BoolVar(&s.Hedge, "hedge", false, "enable forecast-driven hedged reads (implies -resil; pairs best with -prefetch)")
	fs.IntVar(&s.Nodes, "nodes", 1, "fleet mode: simulate this many nodes over a shared object store (docs/fleet.md)")
	fs.IntVar(&s.Sessions, "sessions", 0, "fleet mode: session count (default 10 per node)")
	fs.BoolVar(&s.Objstore, "objstore", false, "fleet mode even with -nodes 1: back the node with the object-store capacity tier")
	fs.StringVar(&s.Control, "control", "central", "weight-control mode: central|tokens|hybrid (docs/tokens.md)")
	return s
}

// Fleet reports whether the spec runs a cluster rather than one node.
func (s *Spec) Fleet() bool { return s.Nodes > 1 || s.Objstore }

// Validate is the spec's one input check, made before any work. It checks
// every field in both modes, naming the flag or value at fault, and
// resolves the names and the -faults plan that Run and FleetConfig read.
func (s *Spec) Validate() error {
	var err error
	if s.pol, err = cliutil.ParsePolicy(s.Policy); err != nil {
		return err
	}
	if s.mode, err = tokenctl.ParseMode(s.Control); err != nil {
		return err
	}
	apps := analytics.Apps()
	app := slices.IndexFunc(apps, func(a analytics.App) bool { return strings.EqualFold(a.Name, s.App) })
	switch most := len(workload.PaperNoiseSet()); {
	case app < 0:
		return fmt.Errorf("unknown app %q (XGC|GenASiS|CFD)", s.App)
	case s.Noise < 0 || s.Noise > most:
		return fmt.Errorf("-noise %d out of range (want 0-%d)", s.Noise, most)
	case s.Bound != 0 && !slices.Contains(NRMSEBounds[:4], s.Bound):
		return fmt.Errorf("-bound %v: want 0 (no error control) or a rung of the NRMSE ladder %v", s.Bound, NRMSEBounds[:4])
	case !(s.Priority >= 0) || math.IsInf(s.Priority, 1): // 0 is core's default, PriorityHigh
		return fmt.Errorf("-priority %v is not finite and >= 0", s.Priority)
	case s.CacheMB < 0:
		return fmt.Errorf("-cache %d is negative", s.CacheMB)
	case s.Nodes < 1:
		return fmt.Errorf("-nodes %d is below 1", s.Nodes)
	case s.Sessions < 0:
		return fmt.Errorf("-sessions %d is negative", s.Sessions)
	case s.Faults == "auto" && s.Fleet():
		return fmt.Errorf("-faults auto: fleet mode takes a written node-kill plan (docs/fleet.md)")
	}
	s.app = apps[app]
	s.SkipWarmup = max(0, min(30, s.Steps/2)) // the paper's estimation period, or half a short run
	sessions := cmp.Or(s.Sessions, 10*s.Nodes)
	if err := cmp.Or(s.Config.Validate(), budget(fmt.Sprintf("-nodes %d -sessions %d", s.Nodes, sessions),
		fleetBytes(float64(s.Nodes), float64(sessions)))); err != nil {
		return err
	}
	switch s.FaultPlan = nil; s.Faults {
	case "":
	case "auto":
		var interferers []string
		for _, n := range workload.FirstPaperNoise(s.Noise) {
			interferers = append(interferers, n.Name)
		}
		s.FaultPlan, err = fault.Generate(s.Seed, fault.GenerateOptions{Horizon: float64(s.Steps) * 60,
			Device: "hdd", Cgroup: s.app.Name, Interferers: interferers})
	default:
		s.FaultPlan, err = fault.ParsePlan(s.Faults)
	}
	return err
}

// SpecRun is a finished single-node run.
type SpecRun struct {
	Mode      tokenctl.Mode
	Hierarchy *refactor.Hierarchy
	Scenario  *Scenario
	Session   *core.Session
}

// Run runs a validated single-node spec on a fresh scenario — the field
// decomposed on the ladder's first four rungs, the plan armed, one session
// run to its last step — writing tangosim's progress lines to w before
// each stage. rec may be nil. The one error is a plan naming a device the
// scenario lacks.
func (s *Spec) Run(rec *trace.Recorder, w io.Writer) (*SpecRun, error) {
	fmt.Fprintf(w, "generating %s field (%dx%d, seed %d)...\n", s.app.Name, s.GridN, s.GridN, s.Seed)
	fmt.Fprintln(w, "decomposing (decimation ratio 16, NRMSE ladder 1e-1..1e-4)...")
	h := appHierarchy(s.app, s.Config, refactor.Options{Levels: refactor.LevelsForRatio(16, 2, 2), Bounds: NRMSEBounds[:4]})
	for _, rg := range h.Rungs() {
		fmt.Fprintf(w, "  rung eps=%-8g cursor=%-9d +%d entries (%.1f%% DoF)\n",
			rg.Bound, rg.Cursor, rg.Cardinality, 100*h.DoFFraction(rg.Cursor))
	}
	scen := NewScenario(s.app.Name, s.Noise)
	if s.FaultPlan != nil {
		if err := scen.ArmFaults(s.FaultPlan, rec); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "fault plan armed: %s\n", s.FaultPlan)
	}
	sc := core.Config{Policy: s.pol, Priority: s.Priority, ErrorControl: s.Bound > 0, Bound: s.Bound, Trace: rec}
	// -prefetch or -cache makes cross-layer the cache variant; other policies keep theirs.
	if s.Prefetch || s.CacheMB > 0 {
		if sc.Policy == core.CrossLayer {
			sc.Policy = core.CrossLayerPrefetch
		}
		cc := cache.DefaultConfig()
		cc.CapacityMB = cmp.Or(s.CacheMB, cc.CapacityMB)
		sc.Cache = &cc
	}
	if s.Resil || s.Hedge {
		sc.Resil = resil.New(scen.Node.Engine(), resil.Options{Trace: rec, Hedge: resil.HedgeConfig{Enabled: s.Hedge}})
	}
	// Central control writes cgroups directly: one session needs no coordinator.
	if s.mode != tokenctl.ModeCentral {
		var opts tokenctl.Options
		if s.mode == tokenctl.ModeHybrid {
			opts.EpochSec = tokensHybridEpoch
		}
		sc.Tokens = tokenctl.New(scen.Node.Engine().Now, opts)
	}
	// The policy as named, before -prefetch upgrades it.
	fmt.Fprintf(w, "running %d steps under %s with %d interferers...\n\n", s.Steps, s.pol, s.Noise)
	sess := runOnScenario(scen, s.app.Name, h, s.Config, sc)
	return &SpecRun{s.mode, h, scen, sess}, nil
}

// FleetConfig is the cluster a validated fleet-mode spec describes, with
// the fleet's session default filled in; rec may be nil.
func (s *Spec) FleetConfig(rec *trace.Recorder) fleet.Config {
	return fleet.Config{Nodes: s.Nodes, Sessions: cmp.Or(s.Sessions, 10*s.Nodes), Seed: s.Seed,
		Plan: s.FaultPlan, Trace: rec, Control: s.mode}
}
