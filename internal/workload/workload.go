// Package workload generates the I/O workloads of the paper's evaluation:
// periodic checkpointing interferers (Table IV — the §II "HPC application
// pattern" I(C^x W)* F with one compute phase per checkpoint), the
// periodic analytics reader, and non-periodic random noise (compilation,
// shell commands) that the DFT estimator is supposed to filter out.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"tango/internal/blkio"
	"tango/internal/container"
	"tango/internal/device"
)

// Noise describes one periodic interfering container: every Period
// seconds it writes CheckpointBytes to the target device, mimicking
// simulation checkpointing activity.
type Noise struct {
	Name            string
	Period          float64 // seconds
	CheckpointBytes float64
	Phase           float64 // initial offset before the first checkpoint
	// Jitter is the per-interval timing spread as a fraction of Period
	// (0 = strictly periodic). Real checkpoint loops drift — compute
	// phases are data-dependent — so intervals are Period·(1 ± Jitter),
	// drawn deterministically from Seed. Without drift, a period that is
	// an exact multiple of an analytics period would alias (the burst
	// always lands at the same offset inside the analysis step).
	Jitter float64
	Seed   int64
}

// PaperNoiseSet returns the six interfering containers of Table IV.
// Phases are staggered and a small drift is applied so the aggregate
// interference is a rich quasi-periodic signal, as on a real node.
func PaperNoiseSet() []Noise {
	return []Noise{
		{Name: "noise1", Period: 200, CheckpointBytes: 768 * device.MB, Phase: 13, Jitter: 0.08, Seed: 1001},
		{Name: "noise2", Period: 225, CheckpointBytes: 512 * device.MB, Phase: 47, Jitter: 0.08, Seed: 1002},
		{Name: "noise3", Period: 360, CheckpointBytes: 512 * device.MB, Phase: 89, Jitter: 0.08, Seed: 1003},
		{Name: "noise4", Period: 180, CheckpointBytes: 1024 * device.MB, Phase: 31, Jitter: 0.08, Seed: 1004},
		{Name: "noise5", Period: 150, CheckpointBytes: 1024 * device.MB, Phase: 67, Jitter: 0.08, Seed: 1005},
		{Name: "noise6", Period: 120, CheckpointBytes: 1024 * device.MB, Phase: 101, Jitter: 0.08, Seed: 1006},
	}
}

// paperDraws maps each Table IV seed to the first tabledDraws Float64
// draws of rand.NewSource(seed), built once per process: every scenario
// launches the same six interferers, and a source is a 4.9 KB state plus
// ~10 µs of seeding. noise6, the shortest period (120 s), draws ≤ 359
// times in the longest run here (39,600 s).
var paperDraws = sync.OnceValue(tabulatePaperDraws)

const tabledDraws = 1024

func tabulatePaperDraws() map[int64][]float64 {
	rows := make(map[int64][]float64)
	for _, n := range PaperNoiseSet() {
		rng, row := rand.New(rand.NewSource(n.Seed)), make([]float64, tabledDraws)
		for i := range row {
			row[i] = rng.Float64()
		}
		rows[n.Seed] = row
	}
	return rows
}

// FirstPaperNoise returns the first n interferers of Table IV, with n
// clamped to 0–6 — the one place a caller-supplied interferer count is
// bounded.
func FirstPaperNoise(n int) []Noise {
	set := PaperNoiseSet()
	return set[:max(0, min(n, len(set)))]
}

// Validate checks a finite period and checkpoint size above zero, a finite
// phase of at least zero, and a jitter in [0,1) (so every interval is > 0).
func (n Noise) Validate() error {
	switch { // NaN fails every comparison
	case !(n.Period > 0) || math.IsInf(n.Period, 1):
		return fmt.Errorf("workload: noise %q: period %v is not finite and > 0", n.Name, n.Period)
	case !(n.CheckpointBytes > 0) || math.IsInf(n.CheckpointBytes, 1):
		return fmt.Errorf("workload: noise %q: checkpoint bytes %v are not finite and > 0", n.Name, n.CheckpointBytes)
	case !(n.Phase >= 0) || math.IsInf(n.Phase, 1):
		return fmt.Errorf("workload: noise %q: phase %v is not finite and >= 0", n.Name, n.Phase)
	case !(n.Jitter >= 0 && n.Jitter < 1):
		return fmt.Errorf("workload: noise %q: jitter %v is not in [0,1)", n.Name, n.Jitter)
	}
	return nil
}

// Handle controls a running interferer through workload churn (it leaves
// mid-run, or its producing simulation is rescaled); the interferer sees a
// change at its next checkpoint. Call its methods from sim context.
type Handle struct {
	stopped bool
	period  float64 // <= 0 keeps the configured period
}

// Stop makes the interferer exit after the checkpoint currently being
// written (the competing job left the node).
func (h *Handle) Stop() { h.stopped = true }

// SetPeriod changes the checkpoint period from the next interval on
// (p <= 0 restores the configured period).
func (h *Handle) SetPeriod(p float64) { h.period = p }

// LaunchNoise starts one interfering container on node writing to dev.
// The period is measured start-to-start: if a checkpoint takes longer than
// the period under contention, the next one starts immediately after
// (back-to-back), which is how checkpointing loops behave in practice.
// A Noise that fails Validate panics here, as bad device.Params do: the
// interferer runs as engine callbacks, whose panic would unwind Run.
func LaunchNoise(node *container.Node, dev *device.Device, n Noise) *container.Container {
	if err := n.Validate(); err != nil {
		panic(err)
	}
	c, _ := LaunchValidNoise(node, dev, n)
	return c
}

// LaunchValidNoise is LaunchNoise for a Noise the caller has validated
// already, returning a churn handle alongside the container so the
// interferer can be stopped or re-paced mid-run (see internal/fault). It
// builds no error value, so an engine callback may call it: a fault
// plan's join launches its interferer from one.
func LaunchValidNoise(node *container.Node, dev *device.Device, n Noise) (*container.Container, *Handle) {
	c := node.MustCreate(n.Name)
	x := &interferer{n: n, dev: dev, cg: c.Cgroup(), draws: paperDraws()[n.Seed]}
	node.Engine().AtCall(node.Engine().Now(), x)
	return c, &x.Handle
}

// interferer is the loop "sleep Phase; until stopped: write, sleep what is
// left of the period" as engine callbacks, arming each event where a
// process running the loop did: its first resume, the phase (also 0), the
// write's issue and wake-up (the device's), and the rest of the period
// only when some is left. Every event's seq and every float are the
// process's, and nothing stays parked: a dropped node is garbage.
type interferer struct {
	Handle
	n      Noise
	dev    *device.Device
	cg     *blkio.Cgroup
	draws  []float64  // what is left of the seed's tabled draws, or nil
	rng    *rand.Rand // seeded at the first draw past the table
	tok    device.Token
	start  float64 // of the checkpoint in flight
	phased bool    // the first resume is past: each Fire starts a checkpoint
}

// draw returns the next Float64 of rand.NewSource(Seed): from the table
// while it lasts, then from a source of its own past the draws a table
// gave, so every period is the one a fresh source draws.
func (x *interferer) draw() float64 {
	if len(x.draws) > 0 {
		v := x.draws[0]
		x.draws = x.draws[1:]
		return v
	}
	if x.rng == nil {
		x.rng = rand.New(rand.NewSource(x.n.Seed))
		for i := 0; x.draws != nil && i < tabledDraws; i++ {
			x.rng.Float64()
		}
	}
	return x.rng.Float64()
}

// Fire takes the launch hop, then starts a checkpoint unless stopped.
func (x *interferer) Fire() {
	eng := x.dev.Engine()
	switch {
	case !x.phased:
		x.phased = true
		eng.AtCall(eng.Now()+x.n.Phase, x)
	case !x.stopped:
		x.start = eng.Now()
		if ended, _ := x.dev.Begin(x.cg, x.n.CheckpointBytes, true, false, &x.tok, 0, x); ended {
			x.TransferDone(&x.tok, nil)
		}
	}
}

// TransferDone ends a checkpoint: it draws the jittered period and sleeps
// what is left of it, or starts the next one at once after an overrun.
func (x *interferer) TransferDone(*device.Token, error) {
	period := x.n.Period
	if x.period > 0 {
		period = x.period
	}
	if x.n.Jitter > 0 {
		period *= 1 + float64(x.n.Jitter*(2*float64(x.draw())-1))
	}
	eng := x.dev.Engine()
	if wait := period - (eng.Now() - x.start); wait > 0 {
		eng.AtCall(eng.Now()+wait, x)
	} else {
		x.Fire()
	}
}

// LaunchNoiseSet starts the given interferers and returns their containers.
func LaunchNoiseSet(node *container.Node, dev *device.Device, set []Noise) []*container.Container {
	out := make([]*container.Container, 0, len(set))
	for _, n := range set {
		out = append(out, LaunchNoise(node, dev, n))
	}
	return out
}

// LaunchNoiseSetControlled starts the given interferers and returns their
// churn handles keyed by name.
func LaunchNoiseSetControlled(node *container.Node, dev *device.Device, set []Noise) map[string]*Handle {
	out := make(map[string]*Handle, len(set))
	for _, n := range set {
		if err := n.Validate(); err != nil {
			panic(err)
		}
		_, out[n.Name] = LaunchValidNoise(node, dev, n)
	}
	return out
}

// RandomNoise launches a container issuing small, aperiodic writes
// (compilation artifacts, shell commands). Inter-arrival times are
// exponential with the given mean; sizes are uniform in [minB, maxB].
// This is the low-intensity random activity the paper says can be
// neglected / filtered by DFT thresholding. A gap or size that is not
// finite and >= 0 panics here: the writer runs as engine callbacks,
// whose panic would unwind Run.
func RandomNoise(node *container.Node, dev *device.Device, name string, meanGap, minB, maxB float64, seed int64) *container.Container {
	mustNonNeg(name, "mean gap", meanGap)
	mustNonNeg(name, "min size", minB)
	mustNonNeg(name, "max size", maxB)
	c := node.MustCreate(name)
	w := &randomWriter{dev: dev, cg: c.Cgroup(), rng: rand.New(rand.NewSource(seed)), meanGap: meanGap, minB: minB, maxB: maxB}
	node.Engine().AtCall(node.Engine().Now(), w)
	return c
}

// randomWriter is the loop "sleep a drawn gap, write a drawn size" as
// engine callbacks: the launch hop, each gap armed at now+gap and each
// write's issue and end (the device's), drawing from the RNG in the
// loop's order.
type randomWriter struct {
	dev        *device.Device
	cg         *blkio.Cgroup
	rng        *rand.Rand
	meanGap    float64
	minB, maxB float64
	tok        device.Token
	launched   bool
}

// Fire takes the launch hop, then starts a write at the end of each gap.
func (w *randomWriter) Fire() {
	if !w.launched {
		w.launched = true
		w.sleep()
		return
	}
	size := w.minB + float64(w.rng.Float64()*(w.maxB-w.minB))
	if ended, _ := w.dev.Begin(w.cg, size, true, false, &w.tok, 0, w); ended {
		w.sleep()
	}
}

// TransferDone sleeps the next gap.
func (w *randomWriter) TransferDone(*device.Token, error) { w.sleep() }

func (w *randomWriter) sleep() {
	eng := w.dev.Engine()
	eng.AtCall(eng.Now()+float64(w.rng.ExpFloat64()*w.meanGap), w)
}

// StepFunc is invoked once per analytics step with the step index; it
// returns the number of bytes the step wants to read.
type StepFunc func(step int) float64

// PeriodicReader launches a container that performs one read of
// bytesFn(step) from dev every period seconds (period measured
// start-to-start) and reports each step's perceived bandwidth through
// observe. This is the shape of the paper's data analytics containers,
// which "retrieve and analyze data iteratively from the shared disk". A
// period that is not finite and >= 0, or a negative step count, panics
// here, as in RandomNoise.
func PeriodicReader(node *container.Node, dev *device.Device, name string,
	period float64, steps int, bytesFn StepFunc,
	observe func(step int, start, ioTime, bytes float64)) *container.Container {
	mustNonNeg(name, "period", period)
	if steps < 0 {
		panic(fmt.Sprintf("workload: %q: step count %d is negative", name, steps))
	}
	c := node.MustCreate(name)
	r := &periodicReader{dev: dev, cg: c.Cgroup(), period: period, steps: steps, bytesFn: bytesFn, observe: observe}
	node.Engine().AtCall(node.Engine().Now(), r)
	return c
}

// periodicReader is the loop "read, observe, sleep what is left of the
// period" as engine callbacks: the launch hop, each read's issue and end
// (the device's), and the rest of the period only when some is left —
// also after the last step, where the loop slept before it ended.
type periodicReader struct {
	dev          *device.Device
	cg           *blkio.Cgroup
	period       float64
	steps, step  int
	bytesFn      StepFunc
	observe      func(step int, start, ioTime, bytes float64)
	start, bytes float64 // of the step in flight
	tok          device.Token
}

// Fire starts the next step's read, if a step is left.
func (r *periodicReader) Fire() {
	if r.step >= r.steps {
		return
	}
	r.start = r.dev.Engine().Now()
	r.bytes = r.bytesFn(r.step)
	if ended, _ := r.dev.Begin(r.cg, r.bytes, false, false, &r.tok, 0, r); ended {
		r.TransferDone(&r.tok, nil)
	}
}

// TransferDone reports the step and sleeps what is left of the period, or
// starts the next step at once after an overrun.
func (r *periodicReader) TransferDone(*device.Token, error) {
	eng := r.dev.Engine()
	if r.observe != nil {
		r.observe(r.step, r.start, eng.Now()-r.start, r.bytes)
	}
	r.step++
	if wait := r.period - (eng.Now() - r.start); wait > 0 {
		eng.AtCall(eng.Now()+wait, r)
	} else {
		r.Fire()
	}
}

// mustNonNeg panics unless v is finite and >= 0.
func mustNonNeg(name, what string, v float64) {
	if !finiteNonNeg(v) {
		panic(fmt.Sprintf("workload: %q: %s %v is not finite and >= 0", name, what, v))
	}
}
