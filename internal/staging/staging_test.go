package staging

import (
	"math"
	"math/rand"
	"testing"

	"tango/internal/blkio"
	"tango/internal/device"
	"tango/internal/refactor"
	"tango/internal/resil"
	"tango/internal/sim"
	"tango/internal/tensor"
)

func field(n int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(n, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			t.Set(math.Sin(float64(r)/3)*math.Cos(float64(c)/5)+0.1*rng.NormFloat64(), r, c)
		}
	}
	return t
}

func twoTier(eng *sim.Engine) (ssd, hdd *device.Device) {
	sp := device.Params{Name: "ssd", PeakBandwidth: 500 * device.MB, MinEfficiency: 1}
	hp := device.Params{Name: "hdd", PeakBandwidth: 100 * device.MB, MinEfficiency: 1}
	return device.New(eng, sp), device.New(eng, hp)
}

func TestStagePlacementFollowsFig3(t *testing.T) {
	eng := sim.NewEngine()
	ssd, hdd := twoTier(eng)
	h, err := refactor.Decompose(field(33, 1), refactor.Options{Levels: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Stage(h, []*device.Device{ssd, hdd})
	if err != nil {
		t.Fatal(err)
	}
	if s.BaseDevice() != ssd {
		t.Fatal("base must live on the fastest tier")
	}
	// Finest augmentation (level 0) on the slowest tier.
	if s.DeviceForLevel(0) != hdd {
		t.Fatal("finest augmentation must live on the capacity tier")
	}
	// Coarser augmentations on the fast tier (clamped).
	if s.DeviceForLevel(1) != ssd || s.DeviceForLevel(2) != ssd {
		t.Fatal("coarse augmentations should live on the fast tier")
	}
	if s.SlowestDevice() != hdd {
		t.Fatal("slowest device should be the hdd")
	}
}

func TestStageReservesAndReleases(t *testing.T) {
	eng := sim.NewEngine()
	ssd, hdd := twoTier(eng)
	h, err := refactor.Decompose(field(33, 2), refactor.Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Stage(h, []*device.Device{ssd, hdd})
	if err != nil {
		t.Fatal(err)
	}
	if ssd.Used() == 0 || hdd.Used() == 0 {
		t.Fatalf("reservations missing: ssd=%v hdd=%v", ssd.Used(), hdd.Used())
	}
	s.Release()
	if ssd.Used() != 0 || hdd.Used() != 0 {
		t.Fatalf("release incomplete: ssd=%v hdd=%v", ssd.Used(), hdd.Used())
	}
	s.Release() // idempotent
	if ssd.Used() != 0 {
		t.Fatal("double release corrupted accounting")
	}
}

func TestStageCapacityFailureRollsBack(t *testing.T) {
	eng := sim.NewEngine()
	sp := device.Params{Name: "ssd", PeakBandwidth: 500, MinEfficiency: 1, Capacity: 64} // tiny
	ssd := device.New(eng, sp)
	_, hdd := twoTier(eng)
	h, err := refactor.Decompose(field(33, 3), refactor.Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Stage(h, []*device.Device{ssd, hdd}); err == nil {
		t.Fatal("staging should fail on tiny fast tier")
	}
	if ssd.Used() != 0 || hdd.Used() != 0 {
		t.Fatalf("rollback incomplete: ssd=%v hdd=%v", ssd.Used(), hdd.Used())
	}
}

func TestStageNoTiers(t *testing.T) {
	h, err := refactor.Decompose(field(17, 4), refactor.Options{Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Stage(h, nil); err == nil {
		t.Fatal("no tiers accepted")
	}
}

// TestStageScaledRejectsBadScale: a NaN scale passed `scale <= 0` and
// reserved NaN bytes, which let any later reservation fit and made the
// first ReadBase panic on a NaN transfer size.
func TestStageScaledRejectsBadScale(t *testing.T) {
	h, err := refactor.Decompose(field(17, 5), refactor.Options{Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{math.NaN(), math.Inf(1), 0, -1} {
		eng := sim.NewEngine()
		ssd, hdd := twoTier(eng)
		if _, err := StageScaled(h, []*device.Device{ssd, hdd}, scale); err == nil {
			t.Errorf("scale %v accepted", scale)
		}
		if ssd.Used() != 0 || hdd.Used() != 0 {
			t.Errorf("scale %v reserved ssd=%v hdd=%v", scale, ssd.Used(), hdd.Used())
		}
	}
}

func TestReadBaseTouchesOnlyFastTier(t *testing.T) {
	eng := sim.NewEngine()
	ssd, hdd := twoTier(eng)
	h, err := refactor.Decompose(field(33, 5), refactor.Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Stage(h, []*device.Device{ssd, hdd})
	if err != nil {
		t.Fatal(err)
	}
	cg := blkio.NewCgroup("a")
	var ts TierStats
	eng.Spawn("r", func(p *sim.Proc) { ts = s.ReadBase(p, cg) })
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if ts.BytesOn(ssd) != float64(h.BaseBytes()) {
		t.Fatalf("base bytes on ssd = %v, want %v", ts.BytesOn(ssd), h.BaseBytes())
	}
	if ts.BytesOn(hdd) != 0 {
		t.Fatal("base read touched the capacity tier")
	}
	bytes, tm := ts.Total()
	if bytes != float64(h.BaseBytes()) || tm <= 0 {
		t.Fatalf("total = %v, %v", bytes, tm)
	}
}

func TestReadRangeSplitsAcrossTiers(t *testing.T) {
	eng := sim.NewEngine()
	ssd, hdd := twoTier(eng)
	h, err := refactor.Decompose(field(33, 6), refactor.Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Stage(h, []*device.Device{ssd, hdd})
	if err != nil {
		t.Fatal(err)
	}
	cg := blkio.NewCgroup("a")
	var ts TierStats
	eng.Spawn("r", func(p *sim.Proc) { ts = s.ReadRange(p, cg, 0, h.TotalEntries()) })
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	// Level-1 entries (coarse) come from ssd, level-0 (fine) from hdd.
	if ts.BytesOn(ssd) == 0 || ts.BytesOn(hdd) == 0 {
		t.Fatalf("range should touch both tiers: ssd=%v hdd=%v", ts.BytesOn(ssd), ts.BytesOn(hdd))
	}
	if got, want := ts.BytesOn(ssd)+ts.BytesOn(hdd), float64(h.TotalAugBytes()); got != want {
		t.Fatalf("total range bytes %v, want %v", got, want)
	}
}

func TestProbeReadsSlowTier(t *testing.T) {
	eng := sim.NewEngine()
	ssd, hdd := twoTier(eng)
	h, err := refactor.Decompose(field(17, 7), refactor.Options{Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Stage(h, []*device.Device{ssd, hdd})
	if err != nil {
		t.Fatal(err)
	}
	cg := blkio.NewCgroup("a")
	var ts TierStats
	eng.Spawn("r", func(p *sim.Proc) { ts = s.Probe(p, cg, 1024) })
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if ts.BytesOn(hdd) != 1024 || ts.BytesOn(ssd) != 0 {
		t.Fatal("probe must read from the slowest tier only")
	}
}

func TestTierStatsMerge(t *testing.T) {
	eng := sim.NewEngine()
	ssd, hdd := twoTier(eng)
	var a, b TierStats
	a.add(ssd, 10, 1)
	b.add(ssd, 5, 0.5)
	b.add(hdd, 20, 2)
	a.Merge(b)
	if a.BytesOn(ssd) != 15 || a.BytesOn(hdd) != 20 {
		t.Fatalf("merge: ssd=%v hdd=%v", a.BytesOn(ssd), a.BytesOn(hdd))
	}
	if a.TimeOn(ssd) != 1.5 || a.TimeOn(hdd) != 2 {
		t.Fatal("merge times wrong")
	}
	bytes, tm := a.Total()
	if bytes != 35 || tm != 3.5 {
		t.Fatalf("total = %v %v", bytes, tm)
	}
	_ = eng
}

func TestDeviceForLevelPanicsOutOfRange(t *testing.T) {
	eng := sim.NewEngine()
	ssd, hdd := twoTier(eng)
	h, err := refactor.Decompose(field(17, 8), refactor.Options{Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Stage(h, []*device.Device{ssd, hdd})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.DeviceForLevel(5)
}

// stubCache is a CacheView for exercising the store-side read split
// without importing internal/cache (which would be an import cycle). It
// may over-claim entries; the store must clamp to the segment.
type stubCache struct {
	dev    *device.Device
	prefix int // level-0 entries claimed resident
	calls  int
}

func (sc *stubCache) Serve(level, start, end int) (*device.Device, int) {
	sc.calls++
	if level != 0 || start >= sc.prefix {
		return nil, 0
	}
	return sc.dev, sc.prefix - start
}

func TestCachedReadSplitsSegmentAndConsultsOnce(t *testing.T) {
	eng := sim.NewEngine()
	ssd, hdd := twoTier(eng)
	h, err := refactor.Decompose(field(33, 5), refactor.Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Stage(h, []*device.Device{ssd, hdd})
	if err != nil {
		t.Fatal(err)
	}
	cg := blkio.NewCgroup("app")
	total := h.TotalEntries()
	read := func(parallel bool) TierStats {
		var ts TierStats
		eng.Spawn("reader", func(p *sim.Proc) {
			if parallel {
				ts = readParallel(s, p, cg, 0, total)
			} else {
				ts = s.ReadRange(p, cg, 0, total)
			}
		})
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		return ts
	}

	coldHDD := read(false).BytesOn(hdd)
	if coldHDD == 0 {
		t.Fatal("expected level-0 traffic on the capacity tier")
	}
	ssdUsed, hddUsed := ssd.Used(), hdd.Used()

	n0 := h.LevelEntries(0)
	sc := &stubCache{dev: ssd, prefix: n0 / 2}
	s.SetCache(sc)
	segs := len(h.Segments(0, total))
	warm := read(false)
	if sc.calls != segs {
		t.Fatalf("sequential read consulted cache %d times, want once per segment (%d)", sc.calls, segs)
	}
	wantHDD := coldHDD - float64(h.LevelBytes(0, 0, n0/2))
	if got := warm.BytesOn(hdd); math.Abs(got-wantHDD) > 1e-6 {
		t.Fatalf("cached read moved %v HDD bytes, want %v", got, wantHDD)
	}

	sc.calls = 0
	if got := read(true).BytesOn(hdd); math.Abs(got-wantHDD) > 1e-6 {
		t.Fatalf("parallel cached read moved %v HDD bytes, want %v", got, wantHDD)
	}
	if sc.calls != segs {
		t.Fatalf("parallel read consulted cache %d times, want %d", sc.calls, segs)
	}

	// An over-claiming cache is clamped to the segment: the whole level
	// is served fast, never more.
	sc.prefix = 2 * total
	if got := read(false).BytesOn(hdd); got != 0 {
		t.Fatalf("over-claiming cache left %v bytes on the HDD", got)
	}

	// Probe must bypass the cache so capacity-tier bandwidth samples
	// stay truthful: the blocking form and the Op a session runs.
	for _, op := range []bool{false, true} {
		sc.calls = 0
		var probe TierStats
		eng.Spawn("probe", func(p *sim.Proc) {
			if op {
				w := &opWaiter{p: p}
				probe = w.wait(w.op.Probe(s, cg, 4*device.MB, w))
			} else {
				probe = s.Probe(p, cg, 4*device.MB)
			}
		})
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		if sc.calls != 0 {
			t.Fatalf("Probe (op %t) consulted the cache", op)
		}
		if probe.BytesOn(hdd) != 4*device.MB {
			t.Fatalf("probe (op %t) read %v from the capacity tier", op, probe.BytesOn(hdd))
		}
	}

	// Cached reads never touch staging reservations.
	if ssd.Used() != ssdUsed || hdd.Used() != hddUsed {
		t.Fatalf("reservations moved: ssd %v->%v hdd %v->%v", ssdUsed, ssd.Used(), hddUsed, hdd.Used())
	}
}

// refStats is the slice-backed TierStats this package used to have, kept
// as the reference the inline-array-plus-spill value must match bit for
// bit (first-appearance order decides the float order of Total).
type refStats struct{ entries []tierEntry }

func (r *refStats) add(dev *device.Device, bytes, t float64) {
	for i := range r.entries {
		if r.entries[i].dev == dev {
			r.entries[i].bytes += bytes
			r.entries[i].time += t
			return
		}
	}
	r.entries = append(r.entries, tierEntry{dev, bytes, t})
}

func (r *refStats) merge(o *refStats) {
	for _, e := range o.entries {
		r.add(e.dev, e.bytes, e.time)
	}
}

func (r *refStats) total() (bytes, t float64) {
	for _, e := range r.entries {
		bytes += e.bytes
		t += e.time
	}
	return bytes, t
}

func TestTierStatsSpillKeepsInsertionOrder(t *testing.T) {
	eng := sim.NewEngine()
	devs := make([]*device.Device, tierInline+1)
	for i := range devs {
		devs[i] = device.New(eng, device.Params{Name: string(rune('a' + i)), PeakBandwidth: device.MB, MinEfficiency: 1})
	}
	same := func(what string, got TierStats, want *refStats) {
		t.Helper()
		gb, gt := got.Total()
		wb, wt := want.total()
		if math.Float64bits(gb) != math.Float64bits(wb) || math.Float64bits(gt) != math.Float64bits(wt) {
			t.Fatalf("%s: Total = %v, %v; reference %v, %v", what, gb, gt, wb, wt)
		}
		for _, d := range devs {
			var ref tierEntry
			for _, e := range want.entries {
				if e.dev == d {
					ref = e
				}
			}
			if got.BytesOn(d) != ref.bytes || got.TimeOn(d) != ref.time {
				t.Fatalf("%s: dev %s = %v B, %v s; reference %v, %v", what, d.Name(), got.BytesOn(d), got.TimeOn(d), ref.bytes, ref.time)
			}
		}
	}
	// Magnitudes far enough apart that summing in any other order rounds
	// differently; devices revisited so the find-then-accumulate arm runs
	// on both sides of the spill.
	rng := rand.New(rand.NewSource(7))
	fill := func(order []int) (TierStats, *refStats) {
		var ts TierStats
		ref := &refStats{}
		for round := 0; round < 3; round++ {
			for _, i := range order {
				b, tm := math.Ldexp(rng.Float64(), 10*i), math.Ldexp(rng.Float64(), -7*i)
				ts.add(devs[i], b, tm)
				ref.add(devs[i], b, tm)
			}
		}
		return ts, ref
	}
	a, refA := fill([]int{4, 0, 3, 1, 2})
	same("five devices", a, refA)
	b, refB := fill([]int{2, 4, 1})
	same("three devices", b, refB)
	a.Merge(b)
	refA.merge(refB)
	same("merge into spilled", a, refA)
	b.Merge(a)
	refB.merge(refA)
	same("merge that spills", b, refB)
}

func TestSegmentPartsSplitsAtCachePrefix(t *testing.T) {
	eng := sim.NewEngine()
	ssd, hdd := twoTier(eng)
	h, err := refactor.Decompose(field(33, 5), refactor.Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Stage(h, []*device.Device{ssd, hdd})
	if err != nil {
		t.Fatal(err)
	}
	n0 := h.LevelEntries(0)
	seg := refactor.Segment{Level: 0, Start: 0, End: n0, Bytes: h.LevelBytes(0, 0, n0)}
	whole := segPart{hdd, n0, float64(seg.Bytes)}
	if parts, n := s.segmentParts(seg); n != 1 || parts[0] != whole {
		t.Fatalf("no cache: %d parts %+v, want the whole segment on its home tier", n, parts[:n])
	}
	sc := &stubCache{dev: ssd}
	s.SetCache(sc)
	mid := n0 / 3
	for _, c := range []struct {
		name   string
		prefix int
		want   []segPart
	}{
		{"empty prefix", 0, []segPart{whole}},
		{"partial prefix", mid, []segPart{
			{ssd, mid, float64(h.LevelBytes(0, 0, mid))},
			{hdd, n0 - mid, float64(h.LevelBytes(0, mid, n0))},
		}},
		{"full prefix", n0, []segPart{{ssd, n0, whole.bytes}}},
		{"over-claimed prefix", 2 * n0, []segPart{{ssd, n0, whole.bytes}}},
	} {
		sc.prefix, sc.calls = c.prefix, 0
		parts, n := s.segmentParts(seg)
		if sc.calls != 1 {
			t.Fatalf("%s: Serve called %d times for one segment", c.name, sc.calls)
		}
		if n != len(c.want) {
			t.Fatalf("%s: %d parts %+v, want %+v", c.name, n, parts[:n], c.want)
		}
		for i, w := range c.want {
			if parts[i] != w {
				t.Fatalf("%s: part %d = %+v, want %+v", c.name, i, parts[i], w)
			}
		}
	}
}

// TestGuardedReadsSteadyStateZeroAlloc: the per-step reads keep their
// stats, segments and tier reads in the Op's scratch, so untraced they
// allocate nothing once warm, cache attached or not, reading plainly or
// through an adhoc controller's keys.
func TestGuardedReadsSteadyStateZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	ssd, hdd := twoTier(eng)
	h, err := refactor.Decompose(field(33, 5), refactor.Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Stage(h, []*device.Device{ssd, hdd})
	if err != nil {
		t.Fatal(err)
	}
	cg := blkio.NewCgroup("app")
	total := h.TotalEntries()
	var sink TierStats
	w := &opWaiter{}
	ops := []struct {
		name string
		fn   func(p *sim.Proc)
	}{
		{"ReadRange", func(p *sim.Proc) { sink = w.wait(w.op.ReadRange(s, cg, 0, total, total/2, w)) }},
		{"ReadBase", func(p *sim.Proc) { sink = w.wait(w.op.ReadBase(s, cg, w)) }},
		{"Probe", func(p *sim.Proc) { sink = w.wait(w.op.Probe(s, cg, device.MB, w)) }},
		{"ReadRangeParallel", func(p *sim.Proc) { sink = w.wait(w.op.ReadRangeParallel(s, cg, 0, total, w)) }},
	}
	for _, rc := range []*resil.Controller{nil, resil.NewAdhoc(eng, nil)} {
		s.SetResil(rc)
		for _, cv := range []CacheView{nil, &stubCache{dev: ssd, prefix: h.LevelEntries(0) / 2}} {
			s.SetCache(cv)
			eng.Spawn("reader", func(p *sim.Proc) {
				w.p = p
				for _, op := range ops {
					op.fn(p) // warm the device's flow and event freelists
					if allocs := testing.AllocsPerRun(64, func() { op.fn(p) }); allocs != 0 {
						t.Errorf("%s (cache %v, controller %v): %.1f allocs/op, want 0", op.name, cv != nil, rc != nil, allocs)
					}
				}
			})
			if err := eng.RunAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if b, _ := sink.Total(); b == 0 {
		t.Fatal("reads moved no bytes")
	}
}
