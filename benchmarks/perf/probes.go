package main

import (
	"fmt"

	"tango"
	"tango/internal/blkio"
	"tango/internal/cache"
	"tango/internal/coordinator"
	"tango/internal/device"
	"tango/internal/dftestim"
	"tango/internal/errmetric"
	"tango/internal/objstore"
	"tango/internal/resil"
	"tango/internal/runpool"
	"tango/internal/sim"
	"tango/internal/tokenctl"
	"tango/internal/trace"
	"tango/internal/weightfn"
)

// The isolated probes: one public hot function per layer, called in a
// loop with workload-shaped inputs and nothing else running. Operation
// counts are fixed, sized so each probe takes tens of milliseconds;
// -quick divides them by quickProbeDiv.

// probe is one prepared measurement: run performs ops operations.
type probe struct {
	ops int
	run func() error
}

// sink keeps results live so the compiler cannot drop the probed call.
var sink float64

// probes run in this order; each reports <name>_ns and <name>_allocs
// per operation.
var probes = []struct {
	name  string
	build func(div int) (probe, error)
}{
	{"sim.event", probeSimEvent},
	{"sim.sleep", probeSimSleep},
	{"device.flow", probeDeviceFlow},
	{"blkio.setweight", probeSetWeight},
	{"dftestim.fit", probeFit},
	{"weightfn.weight", probeWeight},
	{"coordinator.request", probeCoordinator},
	{"tokenctl.request", probeTokens},
	{"staging.read", probeStagingRead},
	{"cache.serve", probeCacheServe},
	{"resil.read", probeResilRead},
	{"objstore.reshare", probeReshare},
	{"runpool.submit", probeSubmit},
	{"trace.emit", probeEmit},
}

const quickProbeDiv = 50

func runProbes(values map[string]float64, div int) error {
	for _, pr := range probes {
		p, err := pr.build(div)
		if err != nil {
			return fmt.Errorf("%s: %w", pr.name, err)
		}
		s, err := measure(p.run)
		if err != nil {
			return fmt.Errorf("%s: %w", pr.name, err)
		}
		values[pr.name+"_ns"] = s.wallS * 1e9 / float64(p.ops)
		values[pr.name+"_allocs"] = float64(s.mallocs) / float64(p.ops)
	}
	return nil
}

// sim.event: At plus dispatch, in batches with interleaved offsets so
// both heap sift directions run.
func probeSimEvent(div int) (probe, error) {
	batches, batch := 200/div+1, 1024
	eng := sim.NewEngine()
	fired := 0
	fn := func() { fired++ }
	return probe{batches * batch, func() error {
		for b := 0; b < batches; b++ {
			base := eng.Now()
			for i := 0; i < batch; i++ {
				eng.At(base+float64((i*7)%batch)+1, fn)
			}
			if err := eng.Run(base + float64(batch) + 1); err != nil {
				return err
			}
		}
		if fired != batches*batch {
			return fmt.Errorf("fired %d events of %d", fired, batches*batch)
		}
		return nil
	}}, nil
}

// sim.sleep: one spawned proc in a Sleep loop — per operation one event
// and one goroutine hand-off each way.
func probeSimSleep(div int) (probe, error) {
	n := 100_000 / div
	eng := sim.NewEngine()
	eng.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	return probe{n, eng.RunAll}, nil
}

// device.flow: eight differently weighted 512 MB reads draining
// together on an HDD, reported per flow.
func probeDeviceFlow(div int) (probe, error) {
	rounds, flows := 200/div+1, 8
	return probe{rounds * flows, func() error {
		for r := 0; r < rounds; r++ {
			eng := sim.NewEngine()
			d := device.New(eng, device.HDD("hdd"))
			for j := 0; j < flows; j++ {
				cg := blkio.NewCgroup("cg")
				cg.SetWeight(100 + 100*j)
				eng.Spawn("flow", func(p *sim.Proc) { d.Read(p, cg, 512*device.MB) })
			}
			if err := eng.RunAll(); err != nil {
				return err
			}
		}
		return nil
	}}, nil
}

// blkio.setweight: weight writes to a cgroup with a flow in flight on a
// device shared with five others, so each write reshapes the device.
func probeSetWeight(div int) (probe, error) {
	n := 50_000 / div
	eng := sim.NewEngine()
	d := device.New(eng, device.HDD("hdd"))
	cgs := make([]*blkio.Cgroup, 6)
	for j := range cgs {
		cg := blkio.NewCgroup(fmt.Sprintf("cg%d", j))
		cgs[j] = cg
		eng.Spawn(cg.Name(), func(p *sim.Proc) { d.Read(p, cg, 1e15) }) // never drains
	}
	if err := eng.Run(1); err != nil {
		return probe{}, err
	}
	eng.At(2, func() {
		for i := 0; i < n; i++ {
			cgs[i%len(cgs)].SetWeight(100 + i%900)
		}
	})
	return probe{n, func() error { return eng.Run(3) }}, nil
}

// dftestim.fit: the per-step estimator work at the session's window.
func probeFit(div int) (probe, error) {
	n := 20_000 / div
	est := dftestim.NewEstimator()
	est.Window = 30
	for i := 0; i < 30; i++ {
		est.Observe(80e6 + 30e6*float64(i%6))
	}
	return probe{n, func() error {
		for i := 0; i < n; i++ {
			est.Observe(80e6 + 30e6*float64(i%6))
			if err := est.Fit(); err != nil {
				return err
			}
			sink += est.PredictNext()
		}
		return nil
	}}, nil
}

func probeWeight(div int) (probe, error) {
	n := 1_000_000 / div
	wf, err := weightfn.New(weightfn.Calibration{
		Metric: errmetric.NRMSE, MaxCardinality: 250_000, MinCardinality: 500,
		LoosestBound: 1e-1, TightestBound: 1e-5,
		MaxPriority: weightfn.PriorityHigh, MinPriority: weightfn.PriorityLow,
	})
	if err != nil {
		return probe{}, err
	}
	return probe{n, func() error {
		for i := 0; i < n; i++ {
			sink += float64(wf.Weight(float64(500+i%200_000), nrmseLadder[i%len(nrmseLadder)], float64(1+i%10)))
		}
		return nil
	}}, nil
}

// coordinator.request: one session re-requesting among 100 attached and
// active, the fleet's sessions-per-node.
func probeCoordinator(div int) (probe, error) {
	n, attached := 200_000/div, 100
	a := coordinator.New()
	for i := 0; i < attached; i++ {
		name := fmt.Sprintf("s%d", i)
		if err := a.Attach(name, blkio.NewCgroup(name)); err != nil {
			return probe{}, err
		}
		if _, err := a.Request(name, 200+(i%5)*100); err != nil {
			return probe{}, err
		}
	}
	return probe{n, func() error {
		for i := 0; i < n; i++ {
			if _, err := a.Request("s0", 150+(i%4)*50); err != nil {
				return err
			}
		}
		return nil
	}}, nil
}

// tokenctl.request: a desire escalation that drains the session's own
// bucket and borrows the shortfall from idle peers, 100 attached.
func probeTokens(div int) (probe, error) {
	n, attached := 100_000/div, 100
	now := 0.0
	c := tokenctl.New(func() float64 { return now }, tokenctl.Options{})
	var bk *tokenctl.Bucket
	for i := 0; i < attached; i++ {
		name := fmt.Sprintf("t%d", i)
		tb, err := c.Attach(name, blkio.NewCgroup(name))
		if err != nil {
			return probe{}, err
		}
		if i == 0 {
			bk = tb
		}
	}
	cycle := func(i int) {
		now += 7
		c.Request(bk, 300+(i%7)*100)
		c.Request(bk, 1000)
		c.Release(bk)
	}
	for i := 0; i < 64; i++ { // ledger steady state
		cycle(i)
	}
	return probe{2 * n, func() error {
		for i := 0; i < n; i++ {
			cycle(i)
		}
		if c.Stats().Borrows == 0 {
			return fmt.Errorf("never borrowed")
		}
		return nil
	}}, nil
}

// stagedNode is an idle §IV-A node with one small hierarchy staged at
// datasetMB, for the probes that read through staging.
type stagedNode struct {
	node   *tango.Node
	store  *tango.Store
	cursor int // the prescribed bound's cursor
}

func newStagedNode() (*stagedNode, error) {
	h, err := tango.DecomposeTensor(tango.XGCApp().Generate(129, 42), refactorOptions())
	if err != nil {
		return nil, err
	}
	node := tango.NewNode("probe")
	node.MustAddDevice(tango.SSD("ssd"))
	node.MustAddDevice(tango.HDD("hdd"))
	store, err := tango.StageScaled(h, node.Tiers(), datasetMB*1024*1024/float64(h.BaseBytes()+h.TotalAugBytes()))
	if err != nil {
		return nil, err
	}
	cursor, err := h.CursorForBound(prescribedBound)
	if err != nil {
		return nil, err
	}
	return &stagedNode{node, store, cursor}, nil
}

// staging.read: ReadRange up to the prescribed bound's cursor.
func probeStagingRead(div int) (probe, error) {
	n := 5_000 / div
	sn, err := newStagedNode()
	if err != nil {
		return probe{}, err
	}
	_, err = sn.node.Launch("reader", func(c *tango.Container, p *tango.Proc) {
		for i := 0; i < n; i++ {
			sn.store.ReadRange(p, c.Cgroup(), 0, sn.cursor)
		}
	})
	return probe{n, sn.node.Engine().RunAll}, err
}

// cache.serve: residency look-ups against a cache warmed to the whole
// augmentation stream.
func probeCacheServe(div int) (probe, error) {
	n := 500_000 / div
	sn, err := newStagedNode()
	if err != nil {
		return probe{}, err
	}
	h := sn.store.Hierarchy()
	cc := cache.New(sn.store, sn.store.BaseDevice(), cache.DefaultConfig())
	_, err = sn.node.Launch("warm", func(c *tango.Container, p *tango.Proc) {
		cc.PrefetchTo(p, c.Cgroup(), h.TotalEntries(), nil)
	})
	if err != nil {
		return probe{}, err
	}
	if err := sn.node.Engine().RunAll(); err != nil {
		return probe{}, err
	}
	segs := h.Segments(0, h.TotalEntries())
	return probe{n, func() error {
		for i := 0; i < n; i++ {
			seg := segs[i%len(segs)]
			_, served := cc.Serve(seg.Level, seg.Start, seg.End)
			sink += float64(served)
		}
		if cc.Stats().Hits == 0 {
			return fmt.Errorf("cache never hit")
		}
		return nil
	}}, nil
}

// resil.read: a policy-keyed read with no fault armed.
func probeResilRead(div int) (probe, error) {
	n := 50_000 / div
	eng := sim.NewEngine()
	rc := resil.New(eng, resil.Options{})
	d := device.New(eng, device.HDD("hdd"))
	cg := blkio.NewCgroup("a")
	k := rc.Key(resil.KeyStagingReadCapacity)
	failed := 0
	eng.Spawn("reader", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if !k.Read(p, d, cg, 4*device.MB).OK {
				failed++
			}
		}
	})
	return probe{n, func() error {
		if err := eng.RunAll(); err != nil {
			return err
		}
		if failed > 0 {
			return fmt.Errorf("%d reads failed", failed)
		}
		return nil
	}}, nil
}

// objstore.reshare: the fleet barrier's water-filling at 1000 nodes.
func probeReshare(div int) (probe, error) {
	n, nodes := 2_000/div, 1000
	st := objstore.New(objstore.Default(nodes))
	demands := make([]float64, nodes)
	for i := range demands {
		st.Attach(sim.NewEngine())
		demands[i] = float64(20+i%300) * device.MB
	}
	return probe{n, func() error {
		for i := 0; i < n; i++ {
			demands[i%nodes] += device.MB
			sink += st.Reshare(demands)[0]
		}
		return nil
	}}, nil
}

func probeSubmit(div int) (probe, error) {
	n := 100_000 / div
	return probe{n, func() error {
		for i := 0; i < n; i++ {
			sink += runpool.Submit("probe", func() float64 { return 1 }).Wait()
		}
		return nil
	}}, nil
}

func probeEmit(div int) (probe, error) {
	n := 200_000 / div
	rec := trace.New(4096)
	return probe{n, func() error {
		for i := 0; i < n; i++ {
			rec.Emit(float64(i), "analytics", trace.KindStep, "step=%d io=%.3fs", i, 1.5)
		}
		return nil
	}}, nil
}
