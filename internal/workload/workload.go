// Package workload generates the I/O workloads of the paper's evaluation:
// periodic checkpointing interferers (Table IV — the §II "HPC application
// pattern" I(C^x W)* F with one compute phase per checkpoint), the
// periodic analytics reader, and non-periodic random noise (compilation,
// shell commands) that the DFT estimator is supposed to filter out.
package workload

import (
	"math/rand"

	"tango/internal/container"
	"tango/internal/device"
	"tango/internal/sim"
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

// FirstPaperNoise returns the first n interferers of Table IV, with n
// clamped to 0–6 — the one place a caller-supplied interferer count is
// bounded.
func FirstPaperNoise(n int) []Noise {
	set := PaperNoiseSet()
	return set[:max(0, min(n, len(set)))]
}

// Handle controls a running interferer: workload churn (an interferer
// leaving mid-run, or its checkpoint cadence changing when the producing
// simulation is rescaled) mutates the handle, and the interferer's loop
// observes the change at its next iteration. All methods must be called
// from sim context (same engine).
type Handle struct {
	name    string
	stopped bool
	period  float64 // 0 = keep the configured period
}

// Stop makes the interferer exit after the checkpoint currently being
// written (the competing job left the node).
func (h *Handle) Stop() { h.stopped = true }

// Stopped reports whether Stop was called.
func (h *Handle) Stopped() bool { return h.stopped }

// SetPeriod changes the checkpoint period from the next interval on
// (p <= 0 restores the configured period).
func (h *Handle) SetPeriod(p float64) {
	if p <= 0 {
		p = 0
	}
	h.period = p
}

// LaunchNoise starts one interfering container on node writing to dev.
// The period is measured start-to-start: if a checkpoint takes longer than
// the period under contention, the next one starts immediately after
// (back-to-back), which is how checkpointing loops behave in practice.
func LaunchNoise(node *container.Node, dev *device.Device, n Noise) *container.Container {
	c, _ := LaunchNoiseControlled(node, dev, n)
	return c
}

// LaunchNoiseControlled is LaunchNoise returning a churn handle alongside
// the container, so the interferer can be stopped or re-paced mid-run
// (see internal/fault).
func LaunchNoiseControlled(node *container.Node, dev *device.Device, n Noise) (*container.Container, *Handle) {
	rng := rand.New(rand.NewSource(n.Seed))
	h := &Handle{name: n.Name}
	c := node.MustLaunch(n.Name, func(c *container.Container, p *sim.Proc) {
		p.Sleep(n.Phase)
		for !h.stopped {
			start := p.Now()
			c.Write(p, dev, n.CheckpointBytes)
			period := n.Period
			if h.period > 0 {
				period = h.period
			}
			if n.Jitter > 0 {
				period *= 1 + n.Jitter*(2*rng.Float64()-1)
			}
			wait := period - (p.Now() - start)
			if wait > 0 {
				p.Sleep(wait)
			}
		}
	})
	return c, h
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
		_, h := LaunchNoiseControlled(node, dev, n)
		out[n.Name] = h
	}
	return out
}

// RandomNoise launches a container issuing small, aperiodic writes
// (compilation artifacts, shell commands). Inter-arrival times are
// exponential with the given mean; sizes are uniform in [minB, maxB].
// This is the low-intensity random activity the paper says can be
// neglected / filtered by DFT thresholding.
func RandomNoise(node *container.Node, dev *device.Device, name string, meanGap, minB, maxB float64, seed int64) *container.Container {
	rng := rand.New(rand.NewSource(seed))
	return node.MustLaunch(name, func(c *container.Container, p *sim.Proc) {
		for {
			p.Sleep(rng.ExpFloat64() * meanGap)
			size := minB + rng.Float64()*(maxB-minB)
			c.Write(p, dev, size)
		}
	})
}

// StepFunc is invoked once per analytics step with the step index; it
// returns the number of bytes the step wants to read.
type StepFunc func(step int) float64

// PeriodicReader launches a container that performs one read of
// bytesFn(step) from dev every period seconds (period measured
// start-to-start) and reports each step's perceived bandwidth through
// observe. This is the shape of the paper's data analytics containers,
// which "retrieve and analyze data iteratively from the shared disk".
func PeriodicReader(node *container.Node, dev *device.Device, name string,
	period float64, steps int, bytesFn StepFunc,
	observe func(step int, start, ioTime, bytes float64)) *container.Container {
	return node.MustLaunch(name, func(c *container.Container, p *sim.Proc) {
		for s := 0; s < steps; s++ {
			start := p.Now()
			bytes := bytesFn(s)
			ioTime := c.Read(p, dev, bytes)
			if observe != nil {
				observe(s, start, ioTime, bytes)
			}
			wait := period - (p.Now() - start)
			if wait > 0 {
				p.Sleep(wait)
			}
		}
	})
}
