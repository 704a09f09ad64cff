package harness

import (
	"fmt"

	"tango/internal/analytics"
	"tango/internal/container"
	"tango/internal/core"
	"tango/internal/device"
	"tango/internal/fault"
	"tango/internal/refactor"
	"tango/internal/staging"
	"tango/internal/trace"
	"tango/internal/workload"
)

// Scenario is one simulated node set up per §IV-A: an SSD performance
// tier, an HDD capacity tier, and the Table IV interference containers
// targeting the HDD.
type Scenario struct {
	Node *container.Node
	SSD  *device.Device
	HDD  *device.Device
	// Noise holds control handles for the launched interferers, keyed by
	// name; the fault injector's churn events (leave, period) act on
	// these.
	Noise map[string]*workload.Handle
	// Injector is the armed fault injector when the experiment config
	// carries a FaultPlan (nil otherwise).
	Injector *fault.Injector
}

// NewScenario builds the node and launches the first nNoise interferers
// of Table IV (0–6).
func NewScenario(name string, nNoise int) *Scenario {
	return newScenarioWithHDD(name, nNoise, hddParamsReal())
}

// hddParamsReal returns the calibrated HDD preset.
func hddParamsReal() device.Params { return device.HDD("hdd") }

// hddParamsNoThrash returns the HDD preset with the seek-thrash term
// removed (ablation #1).
func hddParamsNoThrash() device.Params {
	p := device.HDD("hdd")
	p.SeekThrash = 0
	p.MinEfficiency = 1
	return p
}

// newScenarioWithHDD builds a scenario with custom HDD parameters.
func newScenarioWithHDD(name string, nNoise int, hdd device.Params) *Scenario {
	node := container.NewNode(name)
	s := &Scenario{
		Node: node,
		SSD:  node.MustAddDevice(device.SSD("ssd")),
		HDD:  node.MustAddDevice(hdd),
	}
	s.Noise = workload.LaunchNoiseSetControlled(node, s.HDD, workload.FirstPaperNoise(nNoise))
	return s
}

// ArmFaults binds and arms plan on this scenario, recording injections
// into rec (which may be nil). Call after the scenario is built and
// before the engine runs.
func (s *Scenario) ArmFaults(plan *fault.Plan, rec *trace.Recorder) {
	in := fault.NewInjector(s.Node, rec, plan)
	in.RegisterNoise(s.Noise)
	if err := in.Arm(); err != nil {
		panic(fmt.Sprintf("harness: arming faults: %v", err))
	}
	s.Injector = in
}

// run advances the scenario steps analysis periods plus slack seconds
// and then closes the engine: every session has finished by then, and the
// interferer and prefetcher procs still parked would otherwise outlive
// the scenario, each pinning its node. Results are read after it returns.
func (s *Scenario) run(steps int, slack float64) {
	eng := s.Node.Engine()
	err := eng.Run(float64(steps)*60 + slack)
	eng.Close()
	if err != nil {
		panic(err)
	}
}

// Stage places a hierarchy on this scenario's tiers at the payload scale
// that makes the whole staged dataset datasetMB large — the paper's
// production datasets and checkpoints are hundreds of MB to GB, and the
// adaptivity phenomena only appear when the analytics' retrieval is a
// first-class load on the capacity tier.
func (s *Scenario) Stage(h *refactor.Hierarchy, datasetMB float64) *staging.Store {
	scale := datasetMB * 1024 * 1024 / float64(h.BaseBytes()+h.TotalAugBytes())
	if scale < 1 {
		scale = 1
	}
	st, err := staging.StageScaled(h, s.Node.Tiers(), scale)
	if err != nil {
		panic(fmt.Sprintf("harness: staging: %v", err))
	}
	return st
}

// runOne stages h on a fresh scenario, runs a session to completion, and
// returns it.
func runOne(name string, nNoise int, h *refactor.Hierarchy, cfg Config, sc core.Config) *core.Session {
	scen := NewScenario(name, nNoise)
	return runOnScenario(scen, name, h, cfg, sc)
}

func runOnScenario(scen *Scenario, name string, h *refactor.Hierarchy, cfg Config, sc core.Config) *core.Session {
	if sc.Steps == 0 {
		sc.Steps = cfg.Steps
	}
	if cfg.FaultPlan != nil && scen.Injector == nil {
		scen.ArmFaults(cfg.FaultPlan, sc.Trace)
	}
	if sc.Allocator != nil && sc.Trace != nil {
		sc.Allocator.SetTrace(sc.Trace, scen.Node.Engine().Now)
	}
	sess, err := core.NewSession(name, scen.Stage(h, cfg.DatasetMB), sc)
	if err != nil {
		panic(fmt.Sprintf("harness: session %s: %v", name, err))
	}
	if err := sess.Launch(scen.Node); err != nil {
		panic(err)
	}
	scen.run(sc.Steps, 3600)
	if got := len(sess.Stats()); got != sc.Steps {
		panic(fmt.Sprintf("harness: %s finished %d of %d steps", name, got, sc.Steps))
	}
	return sess
}

// defaultOpts is the decomposition used by the performance experiments:
// the paper's default decimation ratio of 16 (two augmentation levels in
// 2D with d=2) and the NRMSE ladder.
func defaultOpts() refactor.Options {
	return refactor.Options{
		Levels: refactor.LevelsForRatio(16, 2, 2),
		Bounds: NRMSEBounds,
	}
}

// appsUnderTest lists the paper's three applications.
func appsUnderTest() []analytics.App { return analytics.Apps() }
