package harness

import (
	"fmt"

	"tango/internal/analytics"
	"tango/internal/container"
	"tango/internal/core"
	"tango/internal/device"
	"tango/internal/dftestim"
	"tango/internal/fault"
	"tango/internal/refactor"
	"tango/internal/runpool"
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
	// Injector is the armed fault injector once ArmFaults has run (nil
	// otherwise).
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
// before the engine runs. It fails on a device the scenario lacks.
func (s *Scenario) ArmFaults(plan *fault.Plan, rec *trace.Recorder) error {
	in := fault.NewInjector(s.Node, rec, plan)
	in.RegisterNoise(s.Noise)
	if err := in.Arm(); err != nil {
		return err
	}
	s.Injector = in
	return nil
}

// run advances the scenario steps analysis periods plus slack seconds:
// every session has finished by then. Results are read after it returns.
func (s *Scenario) run(steps int, slack float64) {
	if err := s.Node.Engine().Run(float64(float64(steps)*60) + slack); err != nil {
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

// launch stages h on the scenario and starts one session over it; a zero
// sc.Steps takes cfg.Steps. Every experiment's sessions start here.
func (s *Scenario) launch(name string, h *refactor.Hierarchy, cfg Config, sc core.Config) *core.Session {
	if sc.Steps == 0 {
		sc.Steps = cfg.Steps
	}
	sess, err := core.NewSession(name, s.Stage(h, cfg.DatasetMB), sc)
	if err != nil {
		panic(fmt.Sprintf("harness: session %s: %v", name, err))
	}
	if err := sess.Launch(s.Node); err != nil {
		panic(err)
	}
	return sess
}

// runOne stages h on a fresh scenario, runs a session to completion, and
// returns it.
func runOne(name string, nNoise int, h *refactor.Hierarchy, cfg Config, sc core.Config) *core.Session {
	return runOnScenario(NewScenario(name, nNoise), name, h, cfg, sc)
}

func runOnScenario(scen *Scenario, name string, h *refactor.Hierarchy, cfg Config, sc core.Config) *core.Session {
	sess := scen.launch(name, h, cfg, sc)
	steps := sess.Config.Steps
	scen.run(steps, 3600)
	if got := len(sess.Stats()); got != steps {
		panic(fmt.Sprintf("harness: %s finished %d of %d steps", name, got, steps))
	}
	return sess
}

// sessionPair is the two-session scenario of the coexist, coordinated and
// tokens experiments after it ran.
type sessionPair struct{ interactive, batch *core.Session }

// runPair launches an "interactive" and a "batch" cross-layer session at
// NRMSE 0.01 over the same hierarchy, differing in priority only, and
// runs the scenario to completion. sc carries what the two share.
func (s *Scenario) runPair(h *refactor.Hierarchy, cfg Config, sc core.Config, pInteractive, pBatch float64) sessionPair {
	sc.Policy, sc.ErrorControl, sc.Bound = core.CrossLayer, true, 0.01
	var p sessionPair
	sc.Priority = pInteractive
	p.interactive = s.launch("interactive", h, cfg, sc)
	sc.Priority = pBatch
	p.batch = s.launch("batch", h, cfg, sc)
	s.run(cfg.Steps, 3600)
	return p
}

// row renders both mean I/O times and how much sooner the interactive
// session finishes its steps.
func (p sessionPair) row(label string, skip int) []string {
	i, b := p.interactive.Summary(skip).MeanIO, p.batch.Summary(skip).MeanIO
	return []string{label, fmtS(i), fmtS(b), fmt.Sprintf("%.0f%%", 100*(1-i/b))}
}

// rung is the cursor that satisfies bound on h's ladder; every bound the
// experiments ask for is one the hierarchy was decomposed with.
func rung(h *refactor.Hierarchy, bound float64) int {
	cur, err := h.CursorForBound(bound)
	if err != nil {
		panic(err)
	}
	return cur
}

// measured is the session's steps after the warm-up.
func measured(sess *core.Session, skip int) []core.StepStats {
	st := sess.Stats()
	return st[min(skip, len(st)):]
}

// boundViolations counts the steps whose retrieval stopped short of the
// mandatory cursor (the prescribed bound's rung).
func boundViolations(steps []core.StepStats, mandatory int) int {
	viol := 0
	for _, st := range steps {
		if st.Cursor < mandatory {
			viol++
		}
	}
	return viol
}

// slowBW is the per-step capacity-tier bandwidth sample series of a
// finished session.
func slowBW(sess *core.Session) []float64 {
	out := make([]float64, 0, len(sess.Stats()))
	for _, st := range sess.Stats() {
		out = append(out, st.SlowBW)
	}
	return out
}

// holdoutMAE trains a DFT estimator (amplitude threshold frac) on the
// first 30 samples and returns its mean absolute error predicting the
// rest — the paper's Fig 7 protocol.
func holdoutMAE(samples []float64, frac float64) float64 {
	est := dftestim.NewEstimator()
	est.ThreshFrac = frac
	est.Window = 30
	for _, bw := range samples[:30] {
		est.Observe(bw)
	}
	if err := est.Fit(); err != nil {
		panic(err)
	}
	return est.MeanAbsError(30, samples[30:])
}

// fanOut runs f over items as parallel pool jobs (labelled name/index)
// and returns the results in item order, whatever order they finish in.
func fanOut[T, R any](name string, items []T, f func(T) R) []R {
	tasks := make([]*runpool.Task[R], len(items))
	for i, it := range items {
		tasks[i] = runpool.Submit(fmt.Sprintf("%s/%d", name, i), func() R { return f(it) })
	}
	out := make([]R, len(items))
	for i, t := range tasks {
		out[i] = t.Wait()
	}
	return out
}

// addRows appends one row per item, each computed as a parallel pool job.
func addRows[T any](r *Result, items []T, row func(T) []string) {
	for _, cells := range fanOut(r.ID, items, row) {
		r.Add(cells...)
	}
}

// ioCell renders a summary's I/O time as the figures' mean±std cell.
func ioCell(s core.Summary) string { return fmtS(s.MeanIO) + "±" + fmtS(s.StdIO) }

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
