package cache

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tango/internal/blkio"
	"tango/internal/container"
	"tango/internal/device"
	"tango/internal/refactor"
	"tango/internal/resil"
	"tango/internal/sim"
	"tango/internal/staging"
	"tango/internal/trace"
	"tango/internal/workload"
)

// prefetchToReference is a staging run as it ran while it blocked a
// process on each chunk's read and write, kept as the reference the
// staging chain is held to.
func prefetchToReference(c *Cache, p *sim.Proc, cg *blkio.Cgroup, target int, keepGoing func() bool) (staged float64, aborted bool) {
	if c.closed {
		return 0, false
	}
	for _, r := range c.runs {
		want := target - r.globalStart
		if want > r.total {
			want = r.total
		}
		for r.prefix < want {
			next := r.prefix + c.chunkEntries(r)
			if next > want {
				next = want
			}
			bytes := float64(c.h.LevelBytes(r.level, r.prefix, next)) * c.scale
			if bytes > 0 {
				if !c.makeRoom(bytes, r) {
					return staged, false
				}
				if err := c.dev.Reserve(bytes); err != nil {
					c.shrink()
					return staged, false
				}
				if c.rc != nil {
					res := c.rc.Key(resil.KeyPrefetchStage).Read(p, r.home, cg, bytes)
					if !res.OK {
						c.dev.Release(bytes)
						c.stats.StageFailures++
						return staged, true
					}
				} else {
					r.home.Read(p, cg, bytes)
				}
				c.dev.Write(p, cg, bytes)
				if c.closed {
					c.dev.Release(bytes)
					return staged, false
				}
				c.used += bytes
				r.bytes += bytes
				c.stats.StagedBytes += bytes
				staged += bytes
			}
			r.prefix = next
			if !keepGoing() {
				return staged, true
			}
		}
	}
	return staged, false
}

// prefetchReference is the prefetcher as it ran while it was a process:
// the loop that the tick callback and its staging runs replaced, kept as
// the reference TestPrefetcherMatchesProcessLoop holds them to. A staging
// run polls a closure, as the loop did.
func prefetchReference(pf *Prefetcher, c *container.Container, p *sim.Proc) {
	cg := c.Cgroup()
	pf.cache.SetResil(pf.Resil)
	for {
		p.Sleep(tickInterval)
		if pf.in.Done() {
			return
		}
		pf.stats.Ticks++
		switch res := pf.Resil.Key(resil.KeyPrefetchWeightFloor).Weight(cg, blkio.MinWeight); {
		case res.Skipped:
			pf.stats.WeightSkips++
		case !res.OK:
			pf.stats.WeightRetries++
		}
		cg.SetReadBpsLimit(bpsLimit)
		cg.SetWriteBpsLimit(bpsLimit)
		next, peak, ok := pf.in.Forecast()
		if !ok {
			pf.stats.NotReady++
			continue
		}
		if pf.paused(next) {
			pf.stats.Paused++
			pf.cache.cfg.Trace.Emit(p.Now(), source, trace.KindPrefetch, "paused: observed %.0f B/s below %.0f%% of forecast %.0f B/s",
				pf.in.Observed(), pauseFrac*100, next)
			continue
		}
		if next < lowWaterFrac*peak {
			pf.stats.Busy++
			continue
		}
		staged, aborted := prefetchToReference(pf.cache, p, cg, pf.in.Target(), func() bool { return !pf.paused(next) })
		if aborted {
			pf.stats.Aborted++
		}
		if staged > 0 {
			pf.stats.Runs++
			pf.cache.cfg.Trace.Emit(p.Now(), source, trace.KindPrefetch, "staged %.0f B (cache %.0f/%.0f B, %d entries)",
				staged, pf.cache.Used(), pf.cache.Capacity(), pf.cache.CachedEntries())
		}
	}
}

// drawnInputs are prefetcher inputs drawn from the seed and the clock, so
// that two runs read the same values as long as they ask at the same
// times. Seed 0 is always quiet instead: every tick stages everything.
type drawnInputs struct {
	eng   *sim.Engine
	seed  int64
	total int
	done  *bool
}

func (in drawnInputs) rng(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(in.seed*7919 + salt*104729 + int64(math.Float64bits(in.eng.Now()))))
}

func (in drawnInputs) Forecast() (next, peak float64, ok bool) {
	r := in.rng(1)
	peak = 100 * device.MB
	if in.seed == 0 {
		return peak, peak, true
	}
	return peak * (0.6 + 0.4*r.Float64()), peak, r.Intn(6) > 0
}

func (in drawnInputs) Observed() float64 {
	r := in.rng(2)
	if in.seed == 0 || r.Intn(4) == 0 {
		return 0
	}
	return 100 * device.MB * (0.75 + 0.35*r.Float64())
}

func (in drawnInputs) Target() int {
	if in.seed == 0 {
		return in.total
	}
	return in.rng(3).Intn(in.total + 1)
}

func (in drawnInputs) Done() bool { return *in.done }

// prefetchScenario is one seeded node: a cache over a scaled hierarchy,
// interferers on the capacity tier, device and cgroup faults, and the
// owning session's exit (which closes the cache, maybe mid-chunk).
type prefetchScenario struct {
	seed     int64
	resil    bool
	lateArm  bool // arm each fault and the exit from an event 7.5 s before it
	capMB    int
	ssdCap   float64 // 0 = unlimited
	squeeze  float64 // when another tenant reserves the SSD's free space (0 = never)
	noise    []workload.Noise
	bwFaults [][3]float64 // at, dur, factor (0 = stuck)
	readErrs [][2]float64 // at, dur
	wfails   [][2]float64 // at, dur: the prefetch cgroup's weight writes fail
	resets   []float64    // throttle resets on the prefetch cgroup
	doneAt   float64
	horizon  float64
	zeroLat  bool // the capacity tier has no request latency: a failed read ends at issue
}

func drawPrefetchScenario(seed int64) prefetchScenario {
	rng := rand.New(rand.NewSource(seed))
	grid := func(hi int) float64 { return float64(15 * rng.Intn(hi/15+1)) }
	sc := prefetchScenario{seed: seed, resil: rng.Intn(2) == 0, lateArm: rng.Intn(2) == 0, capMB: 64 << rng.Intn(4), horizon: 1500}
	if rng.Intn(3) == 0 {
		sc.ssdCap = 4096 * device.MB
		if rng.Intn(2) == 0 {
			sc.squeeze = grid(900) + 1
		}
	}
	for i := rng.Intn(4); i > 0; i-- {
		sc.noise = append(sc.noise, workload.Noise{
			Name:            fmt.Sprintf("nz%d", i),
			Period:          grid(240) + 30,
			CheckpointBytes: float64(64+rng.Intn(1024)) * device.MB,
			Phase:           grid(120),
			Jitter:          0.1 * rng.Float64(),
			Seed:            rng.Int63(),
		})
	}
	for i := rng.Intn(3); i > 0; i-- {
		f := [3]float64{grid(1200), grid(300) + 1, rng.Float64()}
		if rng.Intn(4) == 0 {
			f[2] = 0
		}
		sc.bwFaults = append(sc.bwFaults, f)
	}
	for i := rng.Intn(3); i > 0; i-- {
		sc.readErrs = append(sc.readErrs, [2]float64{grid(1200), grid(300) + 1})
	}
	for i := rng.Intn(3); i > 0; i-- {
		sc.wfails = append(sc.wfails, [2]float64{grid(1200) + 7, grid(300) + 30})
	}
	for i := rng.Intn(3); i > 0; i-- {
		sc.resets = append(sc.resets, grid(1200)+3)
	}
	// On the grid, the exit meets a tick; off it, it may land mid-chunk.
	sc.doneAt = grid(1200) + 15
	if rng.Intn(2) == 0 {
		sc.doneAt += 15 * rng.Float64()
	}
	sc.zeroLat = rng.Intn(4) == 0
	return sc
}

// prefetchOutcome is what a run leaves behind: counters and floats,
// compared by bits, and the trace.
type prefetchOutcome struct {
	pf     PrefetchStats
	cache  Stats
	floats []float64
	events string
}

func runPrefetchScenario(t *testing.T, sc prefetchScenario, reference bool) prefetchOutcome {
	t.Helper()
	node := container.NewNode("pf")
	ssdP := device.Params{Name: "ssd", PeakBandwidth: 500 * device.MB, RequestLatency: 1e-4, SeekThrash: 0.02, MinEfficiency: 0.7, Capacity: sc.ssdCap}
	ssd := node.MustAddDevice(ssdP)
	hddP := device.HDD("hdd")
	if sc.zeroLat {
		hddP.RequestLatency = 0
	}
	hdd := node.MustAddDevice(hddP)
	eng := node.Engine()
	h, err := refactor.Decompose(field(65, sc.seed%5), refactor.Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	store, err := staging.StageScaled(h, []*device.Device{ssd, hdd}, 2e4)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New(0)
	c := New(store, ssd, Config{CapacityMB: sc.capMB, Trace: rec})
	store.SetCache(c)
	for _, n := range sc.noise {
		workload.LaunchNoise(node, hdd, n)
	}
	done := false
	pf := NewPrefetcher(c, drawnInputs{eng: eng, seed: sc.seed, total: h.TotalEntries(), done: &done})
	if sc.resil {
		pf.Resil = resil.New(eng, resil.Options{Trace: rec})
	}
	var cont *container.Container
	if reference {
		cont = node.MustLaunch("pf-prefetch", func(c *container.Container, p *sim.Proc) { prefetchReference(pf, c, p) })
	} else {
		if cont, err = node.Create("pf-prefetch"); err != nil {
			t.Fatal(err)
		}
		pf.Launch(cont)
	}
	cg := cont.Cgroup()
	// An event armed late lands after a tick at the same instant, which
	// was armed a whole tick before: a staging run started from the tick
	// must have begun by then.
	at := func(t float64, fn func()) {
		if sc.lateArm {
			eng.At(t-7.5, func() { eng.At(t, fn) })
		} else {
			eng.At(t, fn)
		}
	}
	for _, f := range sc.bwFaults {
		at(f[0], func() { hdd.SetFault(f[2], 0) })
		at(f[0]+f[1], hdd.ClearFault)
	}
	for _, f := range sc.readErrs {
		at(f[0], func() { hdd.SetReadError(true) })
		at(f[0]+f[1], func() { hdd.SetReadError(false) })
	}
	for _, f := range sc.wfails {
		at(f[0], func() { cg.SetWeightFailing(true) })
		at(f[0]+f[1], func() { cg.SetWeightFailing(false) })
	}
	for _, t := range sc.resets {
		at(t, func() { cg.SetReadBpsLimit(0); cg.SetWriteBpsLimit(0) })
	}
	if sc.squeeze > 0 {
		at(sc.squeeze, func() {
			if err := ssd.Reserve(ssd.Params().Capacity - ssd.Used() - 8*device.MB); err != nil {
				panic(err)
			}
		})
	}
	at(sc.doneAt, func() { done = true; c.Close() })
	if err := eng.Run(sc.horizon); err != nil {
		t.Fatal(err)
	}
	var ev strings.Builder
	for _, e := range rec.Events() {
		fmt.Fprintf(&ev, "%v %s %s %s\n", math.Float64bits(e.T), e.Source, e.Kind, e.Msg())
	}
	return prefetchOutcome{
		pf:    pf.Stats(),
		cache: c.Stats(),
		floats: []float64{ssd.TotalBytes(), ssd.BusyTime(), ssd.Used(), hdd.TotalBytes(), hdd.BusyTime(),
			cg.BytesRead(), cg.BytesWritten(), c.Used(), float64(c.CachedEntries()), eng.Now(), float64(eng.Pending()), float64(eng.Scheduled())},
		events: ev.String(),
	}
}

// TestPrefetcherMatchesProcessLoop: over seeded scenarios, the tick
// callback and its staging runs leave every counter, float bit and trace
// event where the process loop they replaced left them, since each
// arms its events where the process armed one.
func TestPrefetcherMatchesProcessLoop(t *testing.T) {
	var sum PrefetchStats
	var failures, shrinks int
	// Seed 0 is drawn by hand: the session exits at the first tick, from
	// an event armed after it, while that tick's staging run is reading
	// its first chunk. The run must start inside the tick's event, before
	// the exit, as the process's loop went on to it.
	exit := prefetchScenario{seed: 0, lateArm: true, capMB: 512, doneAt: tickInterval, horizon: 100}
	for seed := int64(0); seed <= 120; seed++ {
		sc := exit
		if seed > 0 {
			sc = drawPrefetchScenario(seed)
		}
		want := runPrefetchScenario(t, sc, true)
		got := runPrefetchScenario(t, sc, false)
		if got.pf != want.pf {
			t.Fatalf("seed %d: prefetch stats: callback %+v, process loop %+v", seed, got.pf, want.pf)
		}
		if fmt.Sprintf("%v", got.cache) != fmt.Sprintf("%v", want.cache) {
			t.Fatalf("seed %d: cache stats: callback %+v, process loop %+v", seed, got.cache, want.cache)
		}
		for i := range want.floats {
			if math.Float64bits(got.floats[i]) != math.Float64bits(want.floats[i]) {
				t.Fatalf("seed %d: outcome %d: callback %v, process loop %v", seed, i, got.floats, want.floats)
			}
		}
		if got.events != want.events {
			t.Fatalf("seed %d: traces differ\n--- callback\n%s--- process loop\n%s", seed, got.events, want.events)
		}
		s := got.pf
		sum.Runs += s.Runs
		sum.Aborted += s.Aborted
		sum.Paused += s.Paused
		sum.Busy += s.Busy
		sum.NotReady += s.NotReady
		sum.WeightRetries += s.WeightRetries
		failures += got.cache.StageFailures
		shrinks += got.cache.Shrinks
	}
	// The scenarios must reach every branch of a tick and of a run but
	// WeightSkips: the floor key's breaker cools down in less than a tick,
	// so a lone prefetcher always finds it half-open.
	if sum.Runs == 0 || sum.Aborted == 0 || sum.Paused == 0 || sum.Busy == 0 || sum.NotReady == 0 ||
		sum.WeightRetries == 0 || failures == 0 || shrinks == 0 {
		t.Fatalf("scenarios miss a branch: %+v, %d stage failures, %d shrinks", sum, failures, shrinks)
	}
}

// TestCloseDuringStagingReleasesChunk: a cache closed while a chunk is in
// flight gives that chunk back and stages nothing more, so a session that
// exits during a staging run leaks no reservation on the fast tier.
func TestCloseDuringStagingReleasesChunk(t *testing.T) {
	rg := newRig(t, 0)
	c := New(rg.store, rg.ssd, Config{CapacityMB: 64})
	_, hi, _ := rg.hddLevelRange()
	staged := rg.ssd.Used()
	cg := blkio.NewCgroup("bg")
	rg.eng.Spawn("prefetch", func(p *sim.Proc) { c.PrefetchTo(p, cg, hi, nil) })
	rg.eng.At(5e-5, c.Close)
	if err := rg.eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if cg.BytesRead() == 0 {
		t.Fatal("Close landed before the first chunk's read")
	}
	if rg.ssd.Used() != staged || c.Used() != 0 || c.CachedEntries() != 0 {
		t.Fatalf("after Close: SSD used %v B (staged data %v B), cache used %v B with %d entries",
			rg.ssd.Used(), staged, c.Used(), c.CachedEntries())
	}
}
