package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tango/internal/container"
	"tango/internal/device"
	"tango/internal/sim"
)

// The three writers as they ran while each was a process: the loops the
// callbacks replaced, kept as the references TestWritersMatchProcessLoops
// holds them to.

func randomNoiseReference(node *container.Node, dev *device.Device, name string, meanGap, minB, maxB float64, seed int64) *container.Container {
	rng := rand.New(rand.NewSource(seed))
	return node.MustLaunch(name, func(c *container.Container, p *sim.Proc) {
		for {
			p.Sleep(rng.ExpFloat64() * meanGap)
			size := minB + rng.Float64()*(maxB-minB)
			dev.Write(p, c.Cgroup(), size)
		}
	})
}

func periodicReaderReference(node *container.Node, dev *device.Device, name string,
	period float64, steps int, bytesFn StepFunc,
	observe func(step int, start, ioTime, bytes float64)) *container.Container {
	return node.MustLaunch(name, func(c *container.Container, p *sim.Proc) {
		for s := 0; s < steps; s++ {
			start := p.Now()
			bytes := bytesFn(s)
			ioTime := dev.Read(p, c.Cgroup(), bytes)
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

func replayTraceReference(node *container.Node, dev *device.Device, name string, ops []TraceOp) *container.Container {
	return node.MustLaunch(name, func(c *container.Container, p *sim.Proc) {
		for _, op := range ops {
			if wait := op.T - p.Now(); wait > 0 {
				p.Sleep(wait)
			}
			if op.Read {
				dev.Read(p, c.Cgroup(), op.Bytes)
			} else {
				dev.Write(p, c.Cgroup(), op.Bytes)
			}
		}
	})
}

// writerScenario is one seeded node: the three writers, each launched at
// set-up or from a later event, beside Table IV interferers and device
// faults, with times on a coarse grid so that same-instant events are
// common.
type writerScenario struct {
	dev      device.Params
	noise    []Noise
	gap      float64 // random writer's mean gap
	minB     float64
	maxB     float64
	seed     int64   // random writer's
	period   float64 // reader
	steps    int
	readMB   []float64 // per step, cycled
	ops      []TraceOp
	launchAt [3]float64 // random writer, reader, replayer; 0 = at set-up
	faults   []equivFault
	horizon  float64
}

func drawWriterScenario(seed int64) writerScenario {
	rng := rand.New(rand.NewSource(seed))
	grid := func(hi int) float64 { return float64(5 * rng.Intn(hi/5+1)) }
	sc := writerScenario{horizon: 1200, gap: grid(60), seed: rng.Int63(), period: grid(120), steps: rng.Intn(30)}
	zeroLatency := rng.Intn(2) == 0
	if zeroLatency {
		sc.dev = device.Params{Name: "zero-latency", PeakBandwidth: 200 * device.MB, SeekThrash: 0.2, MinEfficiency: 0.3, WriteFactor: 0.9}
	} else {
		sc.dev = device.HDD("hdd")
	}
	// A zero-byte transfer on a device with no request latency ends inside
	// Begin, where a process carried on at once and a callback must too.
	size := func() float64 {
		if rng.Intn(8) == 0 {
			return 0
		}
		return float64(1+rng.Intn(400)) * device.MB
	}
	sc.minB, sc.maxB = size(), size()
	if zeroLatency && sc.gap == 0 {
		sc.gap = 5 // zero gaps and sizes would loop forever at one instant, process and callbacks alike
	}
	for i := rng.Intn(4); i > 0; i-- {
		sc.readMB = append(sc.readMB, size()/device.MB)
	}
	if len(sc.readMB) == 0 {
		sc.readMB = []float64{64}
	}
	// Op times on the grid tie with other events; off it, a sleep armed at
	// now+wait can land an ulp away from the op's time.
	t := 0.0
	for i := rng.Intn(40); i > 0; i-- {
		switch rng.Intn(3) {
		case 1:
			t += grid(60)
		case 2:
			t += 300 * rng.Float64()
		}
		sc.ops = append(sc.ops, TraceOp{T: t, Bytes: size(), Read: rng.Intn(2) == 0})
	}
	for i := range sc.launchAt {
		if rng.Intn(3) == 0 {
			sc.launchAt[i] = grid(300)
		}
	}
	for i, count := 0, rng.Intn(4); i < count; i++ {
		sc.noise = append(sc.noise, Noise{
			Name:            fmt.Sprintf("nz%d", i),
			Period:          grid(200) + 5,
			CheckpointBytes: float64(1+rng.Intn(2048)) * device.MB,
			Phase:           grid(100),
			Seed:            rng.Int63(),
		})
	}
	for i := rng.Intn(4); i > 0; i-- {
		f := equivFault{at: grid(1100), dur: grid(100) + 1, bw: rng.Float64()}
		if rng.Intn(4) == 0 {
			f.bw = 0 // stuck
		}
		if rng.Intn(2) == 0 {
			f.lat = 0.1 * rng.Float64()
		}
		sc.faults = append(sc.faults, f)
	}
	return sc
}

// writerLaunchers are the three writers' launch calls, as callbacks or as
// the reference processes.
type writerLaunchers struct {
	random func(*container.Node, *device.Device, string, float64, float64, float64, int64) *container.Container
	reader func(*container.Node, *device.Device, string, float64, int, StepFunc, func(int, float64, float64, float64)) *container.Container
	replay func(*container.Node, *device.Device, string, []TraceOp) *container.Container
}

var (
	callbackWriters  = writerLaunchers{RandomNoise, PeriodicReader, ReplayTrace}
	referenceWriters = writerLaunchers{randomNoiseReference, periodicReaderReference, replayTraceReference}
)

// runWriterScenario returns what the run leaves behind, as floats to be
// compared by bits: bytes per cgroup, the reader's observations, the
// device's totals, the clock and the queue length.
func runWriterScenario(t *testing.T, sc writerScenario, w writerLaunchers) []float64 {
	t.Helper()
	node := container.NewNode("writers")
	dev := node.MustAddDevice(sc.dev)
	eng := node.Engine()
	var out []float64
	launch := [3]func(){
		func() { w.random(node, dev, "random", sc.gap, sc.minB, sc.maxB, sc.seed) },
		func() {
			w.reader(node, dev, "reader", sc.period, sc.steps,
				func(step int) float64 { return sc.readMB[step%len(sc.readMB)] * device.MB },
				func(step int, start, ioTime, bytes float64) {
					out = append(out, float64(step), start, ioTime, bytes, float64(dev.ActiveFlows()))
				})
		},
		func() { w.replay(node, dev, "replay", sc.ops) },
	}
	for _, n := range sc.noise {
		LaunchNoise(node, dev, n)
	}
	for i, at := range sc.launchAt {
		if at == 0 {
			launch[i]()
		} else {
			eng.At(at, launch[i])
		}
	}
	for _, f := range sc.faults {
		eng.At(f.at, func() { dev.SetFault(f.bw, f.lat) })
		eng.At(f.at+f.dur, dev.ClearFault)
	}
	if err := eng.Run(sc.horizon); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"random", "reader", "replay"} {
		cg := node.Container(name).Cgroup()
		out = append(out, cg.BytesRead(), cg.BytesWritten())
	}
	return append(out, dev.TotalBytes(), dev.BusyTime(), eng.Now(), float64(eng.Pending()))
}

// TestWritersMatchProcessLoops: over seeded scenarios the random writer,
// the periodic reader and the trace replayer leave every float bit and
// the event queue where the process loops they replaced left them, since
// each arms its events where its process armed one.
func TestWritersMatchProcessLoops(t *testing.T) {
	// Seed 0 is a tie drawn by hand: the overrunning reader and the
	// replayer's back-to-back ops move the same bytes at the same rate
	// from the same instant, so both end in one reshape. Each must start
	// its next transfer inline, as its process carried on, not from an
	// event queued behind the other's wake-up.
	ops := make([]TraceOp, 40)
	for i := range ops {
		ops[i] = TraceOp{Bytes: 30 * device.MB, Read: i%2 == 0}
	}
	tie := writerScenario{
		dev: device.Params{Name: "zero-latency", PeakBandwidth: 100 * device.MB, MinEfficiency: 1},
		gap: 1e6, minB: 1, maxB: 1,
		period: 0.25, steps: 40, readMB: []float64{30},
		ops:     ops,
		horizon: 300,
	}
	var overruns, zeroOps, instantOps, ties, later int
	for seed := int64(0); seed <= 300; seed++ {
		sc := tie
		if seed > 0 {
			sc = drawWriterScenario(seed)
		}
		want := runWriterScenario(t, sc, referenceWriters)
		got := runWriterScenario(t, sc, callbackWriters)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d outcome values, process loops %d (scenario %+v)", seed, len(got), len(want), sc)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d: outcome %d: callbacks %v, process loops %v (scenario %+v)", seed, i, got[i], want[i], sc)
			}
		}
		// The reader's observations come first, five floats a step.
		for i := 0; i+4 < len(got)-10; i += 5 {
			if got[i+2] >= sc.period {
				overruns++
			}
		}
		for i, op := range sc.ops {
			if op.Bytes == 0 {
				zeroOps++
				if sc.dev.RequestLatency == 0 {
					instantOps++
				}
			}
			if i > 0 && op.T == sc.ops[i-1].T {
				ties++
			}
		}
		for _, at := range sc.launchAt {
			if at > 0 {
				later++
			}
		}
	}
	// The draw covers what the comparison is for.
	if overruns == 0 || zeroOps == 0 || instantOps == 0 || ties == 0 || later == 0 {
		t.Fatalf("draw missed a case: %d reader overruns, %d zero-byte ops (%d at zero latency), %d same-time ops, %d later launches",
			overruns, zeroOps, instantOps, ties, later)
	}
}

// TestWritersRejectBadInputAtLaunch: a writer runs as engine callbacks,
// whose panic would unwind Run, so bad input panics at launch instead,
// before anything is scheduled or created.
func TestWritersRejectBadInputAtLaunch(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	random := func(gap, minB, maxB float64) func(*container.Node, *device.Device) {
		return func(n *container.Node, d *device.Device) { RandomNoise(n, d, "w", gap, minB, maxB, 1) }
	}
	reader := func(period float64, steps int) func(*container.Node, *device.Device) {
		return func(n *container.Node, d *device.Device) {
			PeriodicReader(n, d, "w", period, steps, func(int) float64 { return device.MB }, nil)
		}
	}
	replay := func(op TraceOp) func(*container.Node, *device.Device) {
		return func(n *container.Node, d *device.Device) {
			ReplayTrace(n, d, "w", []TraceOp{{T: 1, Bytes: device.MB}, op})
		}
	}
	for _, c := range []struct {
		name   string
		launch func(*container.Node, *device.Device)
	}{
		{"random gap NaN", random(nan, 1, 2)},
		{"random gap +Inf", random(inf, 1, 2)},
		{"random gap -Inf", random(-inf, 1, 2)},
		{"random gap negative", random(-1, 1, 2)},
		{"random min size NaN", random(1, nan, 2)},
		{"random min size negative", random(1, -1, 2)},
		{"random max size +Inf", random(1, 1, inf)},
		{"random max size negative", random(1, 1, -2)},
		{"reader period NaN", reader(nan, 3)},
		{"reader period +Inf", reader(inf, 3)},
		{"reader period -Inf", reader(-inf, 3)},
		{"reader period negative", reader(-60, 3)},
		{"reader steps negative", reader(60, -1)},
		{"replay op time NaN", replay(TraceOp{T: nan, Bytes: 1})},
		{"replay op time +Inf", replay(TraceOp{T: inf, Bytes: 1})},
		{"replay op time negative", replay(TraceOp{T: -1, Bytes: 1})},
		{"replay op size NaN", replay(TraceOp{T: 2, Bytes: nan})},
		{"replay op size +Inf", replay(TraceOp{T: 2, Bytes: inf})},
		{"replay op size negative", replay(TraceOp{T: 2, Bytes: -1})},
	} {
		node, hdd := newTestNode()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: launch did not panic", c.name)
				}
			}()
			c.launch(node, hdd)
		}()
		if node.Engine().Pending() != 0 || node.Container("w") != nil {
			t.Errorf("%s: launch left an event or a container behind", c.name)
		}
	}
	// The edges are accepted: no gap, no size, no period, no steps.
	node, hdd := newTestNode()
	random(0, 0, 0)(node, hdd)
	node2, hdd2 := newTestNode()
	reader(0, 0)(node2, hdd2)
	node3, hdd3 := newTestNode()
	replay(TraceOp{T: 0, Bytes: 0})(node3, hdd3)
}
