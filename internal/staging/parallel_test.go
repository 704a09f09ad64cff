package staging

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tango/internal/blkio"
	"tango/internal/device"
	"tango/internal/refactor"
	"tango/internal/sim"
)

func stagedFixture(t *testing.T) (*sim.Engine, *Store, *device.Device, *device.Device) {
	t.Helper()
	eng := sim.NewEngine()
	ssd, hdd := twoTier(eng)
	h, err := refactor.Decompose(field(65, 21), refactor.Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Stage(h, []*device.Device{ssd, hdd})
	if err != nil {
		t.Fatal(err)
	}
	return eng, s, ssd, hdd
}

// opWaiter blocks a process on an Op, as a blocking read did: the op's
// end wakes it.
type opWaiter struct {
	op      Op
	p       *sim.Proc
	waiting bool
}

func (w *opWaiter) OpDone() {
	w.waiting = false
	w.p.Engine().Wake(w.p)
}

// wait blocks p until the read an Op method started ends; pending is what
// the method returned.
func (w *opWaiter) wait(pending bool) TierStats {
	for w.waiting = pending; w.waiting; {
		w.p.Suspend()
	}
	return w.op.TS
}

// readParallel is a parallel read of [from, to) by p.
func readParallel(s *Store, p *sim.Proc, cg *blkio.Cgroup, from, to int) TierStats {
	w := &opWaiter{p: p}
	return w.wait(w.op.ReadRangeParallel(s, cg, from, to, w))
}

func TestParallelReadSameBytesAsSequential(t *testing.T) {
	eng, s, ssd, hdd := stagedFixture(t)
	h := s.Hierarchy()
	cg := blkio.NewCgroup("a")
	var seq, par TierStats
	eng.Spawn("seq", func(p *sim.Proc) {
		seq = s.ReadRange(p, cg, 0, h.TotalEntries())
		par = readParallel(s, p, cg, 0, h.TotalEntries())
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if seq.BytesOn(ssd) != par.BytesOn(ssd) || seq.BytesOn(hdd) != par.BytesOn(hdd) {
		t.Fatalf("byte mismatch: seq ssd=%v hdd=%v, par ssd=%v hdd=%v",
			seq.BytesOn(ssd), seq.BytesOn(hdd), par.BytesOn(ssd), par.BytesOn(hdd))
	}
}

func TestParallelReadOverlapsTiers(t *testing.T) {
	eng, s, _, _ := stagedFixture(t)
	h := s.Hierarchy()
	cg := blkio.NewCgroup("a")
	var tSeq, tPar float64
	eng.Spawn("driver", func(p *sim.Proc) {
		start := p.Now()
		s.ReadRange(p, cg, 0, h.TotalEntries())
		tSeq = p.Now() - start
		start = p.Now()
		readParallel(s, p, cg, 0, h.TotalEntries())
		tPar = p.Now() - start
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	// Overlapping tiers must not be slower; with both tiers carrying
	// data it must be strictly faster than the serial sum.
	if !(tPar < tSeq) {
		t.Fatalf("parallel %v not faster than sequential %v", tPar, tSeq)
	}
}

func TestParallelReadEmptyAndSingleTierRanges(t *testing.T) {
	eng, s, _, hdd := stagedFixture(t)
	h := s.Hierarchy()
	cg := blkio.NewCgroup("a")
	eng.Spawn("driver", func(p *sim.Proc) {
		// Empty range.
		ts := readParallel(s, p, cg, 5, 5)
		if b, _ := ts.Total(); b != 0 {
			t.Errorf("empty range read %v bytes", b)
		}
		// A range confined to the finest level lives on one tier only.
		segs := h.Segments(0, h.TotalEntries())
		last := segs[len(segs)-1]
		if last.Level != 0 {
			t.Fatalf("unexpected segment layout: %+v", segs)
		}
		from := h.TotalEntries() - (last.End - last.Start)
		ts = readParallel(s, p, cg, from, h.TotalEntries())
		if ts.BytesOn(hdd) == 0 {
			t.Error("single-tier range read nothing from hdd")
		}
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelReadDeterministic(t *testing.T) {
	run := func() float64 {
		eng, s, _, _ := stagedFixture(t)
		h := s.Hierarchy()
		cg := blkio.NewCgroup("a")
		var elapsed float64
		eng.Spawn("driver", func(p *sim.Proc) {
			start := p.Now()
			readParallel(s, p, cg, 0, h.TotalEntries())
			elapsed = p.Now() - start
		})
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic parallel read: %v vs %v", a, b)
	}
}

// readRangeParallelReference is ReadRangeParallel as it ran while each
// tier had a reader process: one spawned per tier group, joined by a count
// the caller suspended on (the sim.WaitGroup it used, inlined). Kept as the
// reference TestParallelReadMatchesProcesses holds the tier reads to.
func readRangeParallelReference(s *Store, p *sim.Proc, cg *blkio.Cgroup, from, to int) (ts TierStats) {
	type group struct {
		dev   *device.Device
		parts []segPart
	}
	var groups []*group
	byDev := map[*device.Device]*group{}
	var buf [segScratch]refactor.Segment
	for _, seg := range s.h.AppendSegments(buf[:0], from, to) {
		parts, n := s.segmentParts(seg)
		for _, part := range parts[:n] {
			g, ok := byDev[part.dev]
			if !ok {
				g = &group{dev: part.dev}
				byDev[part.dev] = g
				groups = append(groups, g)
			}
			g.parts = append(g.parts, part)
		}
	}
	if len(groups) == 0 {
		return ts
	}
	if len(groups) == 1 {
		for _, part := range groups[0].parts {
			el := part.dev.Read(p, cg, part.bytes)
			ts.add(part.dev, part.bytes, el)
		}
		return ts
	}
	eng := p.Engine()
	results := make([]TierStats, len(groups))
	left := 0
	for i, g := range groups {
		left++
		eng.Spawn("tier-read", func(cp *sim.Proc) {
			r := &results[i]
			for _, part := range g.parts {
				el := g.dev.Read(cp, cg, part.bytes)
				r.add(g.dev, part.bytes, el)
			}
			if left--; left == 0 {
				eng.Wake(p)
			}
		})
	}
	for left > 0 {
		p.Suspend()
	}
	for _, r := range results {
		ts.Merge(r)
	}
	return ts
}

// splitCache serves a fixed share of every segment from dev, so that a
// segment read splits across two devices.
type splitCache struct {
	dev  *device.Device
	frac float64
}

func (c splitCache) Serve(level, start, end int) (*device.Device, int) {
	return c.dev, int(float64(end-start) * c.frac)
}

// parallelDriver reads eight seeded ranges back to back with an Op, a
// seeded pause after each, as the reference's reader process does with
// the blocking read: an engine callback standing where the process stood.
type parallelDriver struct {
	op   Op
	s    *Store
	cg   *blkio.Cgroup
	rng  *rand.Rand
	devs []*device.Device
	out  []float64
	n    int
}

func (d *parallelDriver) Fire() {
	if d.n == 8 {
		return
	}
	total := d.s.h.TotalEntries()
	from := d.rng.Intn(total + 1)
	to := from + d.rng.Intn(total-from+1)
	if !d.op.ReadRangeParallel(d.s, d.cg, from, to, d) {
		d.OpDone()
	}
}

func (d *parallelDriver) OpDone() {
	eng := d.s.baseDev.Engine()
	for _, e := range d.op.TS.entries() {
		d.out = append(d.out, float64(slices.Index(d.devs, e.dev)), e.bytes, e.time)
	}
	d.out = append(d.out, eng.Now())
	d.n++
	eng.AtCall(eng.Now()+float64(d.rng.Intn(3)), d)
}

// TestParallelReadMatchesProcesses: over seeded scenarios — two or three
// tiers, a cache that splits segments, competing readers, device faults,
// ranges read back to back — the tier reads as Begin flows, driven by a
// callback, return every TierStats entry and leave every device float
// and the event queue where the per-tier processes of a blocked reader
// left them, bit for bit.
func TestParallelReadMatchesProcesses(t *testing.T) {
	run := func(seed int64, reference bool) []float64 {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		var devs []*device.Device
		for i, n := 0, 2+rng.Intn(2); i < n; i++ {
			devs = append(devs, device.New(eng, device.Params{
				Name:           fmt.Sprintf("d%d", i),
				PeakBandwidth:  float64(50+rng.Intn(500)) * device.MB,
				RequestLatency: []float64{0, 1e-4, 8e-3}[rng.Intn(3)],
				SeekThrash:     0.3 * rng.Float64(),
				MinEfficiency:  0.2 + 0.8*rng.Float64(),
			}))
		}
		h, err := refactor.Decompose(field(33, seed%7), refactor.Options{Levels: 3 + rng.Intn(2)})
		if err != nil {
			t.Fatal(err)
		}
		s, err := StageScaled(h, devs, float64(1+rng.Intn(4000)))
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			s.SetCache(splitCache{devs[rng.Intn(len(devs))], rng.Float64()})
		}
		for i := rng.Intn(4); i > 0; i-- {
			dev, mb, gap := devs[rng.Intn(len(devs))], float64(1+rng.Intn(200)), float64(rng.Intn(5))
			bg := blkio.NewCgroup(fmt.Sprintf("bg%d", i))
			bg.SetWeight(100 + rng.Intn(900))
			eng.Spawn(bg.Name(), func(p *sim.Proc) {
				for p.Now() < 100 {
					dev.Read(p, bg, mb*device.MB)
					p.Sleep(gap)
				}
			})
		}
		for i := rng.Intn(3); i > 0; i-- {
			dev, at, dur, bw := devs[rng.Intn(len(devs))], float64(rng.Intn(60)), float64(1+rng.Intn(20)), rng.Float64()
			eng.At(at, func() { dev.SetFault(bw, 0) })
			eng.At(at+dur, dev.ClearFault)
		}
		cg := blkio.NewCgroup("reader")
		d := &parallelDriver{s: s, cg: cg, rng: rng, devs: devs}
		if reference {
			total := h.TotalEntries()
			eng.Spawn("reader", func(p *sim.Proc) {
				for i := 0; i < 8; i++ {
					from := rng.Intn(total + 1)
					to := from + rng.Intn(total-from+1)
					ts := readRangeParallelReference(s, p, cg, from, to)
					for _, e := range ts.entries() {
						d.out = append(d.out, float64(slices.Index(devs, e.dev)), e.bytes, e.time)
					}
					d.out = append(d.out, p.Now())
					p.Sleep(float64(rng.Intn(3)))
				}
			})
		} else {
			eng.AtCall(0, d)
		}
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		out := d.out
		for _, d := range devs {
			out = append(out, d.TotalBytes(), d.BusyTime())
		}
		return append(out, eng.Now(), float64(eng.Pending()), float64(eng.Scheduled()), float64(eng.LiveProcs()))
	}
	for seed := int64(1); seed <= 300; seed++ {
		want := run(seed, true)
		got := run(seed, false)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d outcome values, processes %d", seed, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d: outcome %d: flows %v, processes %v", seed, i, got, want)
			}
		}
	}
}
