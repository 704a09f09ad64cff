package cache

import (
	"math"
	"math/rand"
	"testing"

	"tango/internal/blkio"
	"tango/internal/device"
	"tango/internal/refactor"
	"tango/internal/sim"
	"tango/internal/staging"
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

// rig is a staged two-tier setup: level-0 augmentation on the HDD (the
// only cacheable level), everything else on the SSD.
type rig struct {
	eng      *sim.Engine
	ssd, hdd *device.Device
	h        *refactor.Hierarchy
	store    *staging.Store
}

func newRig(t *testing.T, ssdCap float64) *rig {
	t.Helper()
	eng := sim.NewEngine()
	ssd := device.New(eng, device.Params{
		Name: "ssd", PeakBandwidth: 500 * device.MB, MinEfficiency: 1, Capacity: ssdCap,
	})
	hdd := device.New(eng, device.Params{
		Name: "hdd", PeakBandwidth: 100 * device.MB, MinEfficiency: 1,
	})
	h, err := refactor.Decompose(field(65, 3), refactor.Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err := staging.Stage(h, []*device.Device{ssd, hdd})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, ssd: ssd, hdd: hdd, h: h, store: st}
}

// hddLevelRange returns the cursor range [lo, hi) of the HDD-resident
// level-0 entries and the level's entry count.
func (r *rig) hddLevelRange() (lo, hi, entries int) {
	for _, seg := range r.h.Segments(0, r.h.TotalEntries()) {
		n := seg.End - seg.Start
		if seg.Level == 0 {
			return lo, lo + n, n
		}
		lo += n
	}
	return 0, 0, 0
}

func TestPrefetchThenServe(t *testing.T) {
	rg := newRig(t, 0)
	c := New(rg.store, rg.ssd, Config{CapacityMB: 64})
	rg.store.SetCache(c)
	lo, hi, entries := rg.hddLevelRange()
	if entries == 0 {
		t.Fatal("no HDD-resident level")
	}

	// Nothing staged yet: Serve misses.
	if dev, n := c.Serve(0, 0, entries); dev != nil || n != 0 {
		t.Fatalf("cold cache served %d entries", n)
	}
	if c.Stats().Misses != 1 {
		t.Fatalf("misses = %d, want 1", c.Stats().Misses)
	}

	cg := blkio.NewCgroup("bg")
	rg.eng.Spawn("prefetch", func(p *sim.Proc) {
		c.PrefetchTo(p, cg, hi, nil)
	})
	if err := rg.eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := c.CachedEntries(); got != entries {
		t.Fatalf("cached %d entries, want %d", got, entries)
	}
	if c.Used() <= 0 || c.Used() > c.Capacity() {
		t.Fatalf("used %v out of (0, %v]", c.Used(), c.Capacity())
	}
	// The staged bytes moved HDD -> SSD through the background cgroup.
	if cg.BytesRead() <= 0 || cg.BytesWritten() != cg.BytesRead() {
		t.Fatalf("background flow read %v written %v", cg.BytesRead(), cg.BytesWritten())
	}

	dev, n := c.Serve(0, 0, entries)
	if dev != rg.ssd || n != entries {
		t.Fatalf("Serve = (%v, %d), want (ssd, %d)", dev, n, entries)
	}
	st := c.Stats()
	if st.Hits != 1 || st.HitBytes <= 0 {
		t.Fatalf("hits=%d hitBytes=%v", st.Hits, st.HitBytes)
	}
	_ = lo

	// Close releases everything and detaches service.
	used := rg.ssd.Used()
	c.Close()
	if rg.ssd.Used() >= used {
		t.Fatal("Close did not release device capacity")
	}
	if _, n := c.Serve(0, 0, entries); n != 0 {
		t.Fatal("closed cache still serving")
	}
}

// The store read path must split a segment into a fast-tier prefix and a
// home-tier remainder, and end-to-end reads must get faster.
func TestStoreReadsThroughCache(t *testing.T) {
	rg := newRig(t, 0)
	lo, hi, entries := rg.hddLevelRange()
	cg := blkio.NewCgroup("fg")

	readAll := func() (hddBytes, ssdBytes float64) {
		var ts staging.TierStats
		rg.eng.Spawn("reader", func(p *sim.Proc) {
			ts = rg.store.ReadRange(p, cg, 0, rg.h.TotalEntries())
		})
		if err := rg.eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		return ts.BytesOn(rg.hdd), ts.BytesOn(rg.ssd)
	}

	coldHDD, _ := readAll()
	if coldHDD <= 0 {
		t.Fatal("expected HDD traffic without a cache")
	}

	c := New(rg.store, rg.ssd, Config{CapacityMB: 64})
	rg.store.SetCache(c)
	// Stage only half the level: reads split cache prefix / HDD rest.
	half := lo + entries/2
	rg.eng.Spawn("prefetch", func(p *sim.Proc) {
		c.PrefetchTo(p, cg, half, nil)
	})
	if err := rg.eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	warmHDD, warmSSD := readAll()
	if warmHDD >= coldHDD {
		t.Fatalf("cached read still moved %v HDD bytes (cold %v)", warmHDD, coldHDD)
	}
	if warmSSD <= 0 {
		t.Fatal("no SSD traffic on cached read")
	}
	_ = hi
}

func TestEvictionPrefersLowReuseAndKeepsMandatory(t *testing.T) {
	rg := newRig(t, 0)
	c := New(rg.store, rg.ssd, Config{CapacityMB: 64})
	lo, hi, entries := rg.hddLevelRange()
	c.SetMandatory(lo + entries/4) // first quarter is bound-mandated

	cg := blkio.NewCgroup("bg")
	rg.eng.Spawn("prefetch", func(p *sim.Proc) {
		c.PrefetchTo(p, cg, hi, nil)
	})
	if err := rg.eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	r := c.runForLevel(0)
	if r == nil || r.prefix == 0 {
		t.Fatal("nothing staged")
	}

	// The mandatory prefix multiplies the keep-score 8x.
	sticky := c.score(r)
	c.SetMandatory(0)
	loose := c.score(r)
	if sticky != 8*loose {
		t.Fatalf("mandatory stickiness: score %v vs %v", sticky, loose)
	}

	// A run nobody requests decays toward zero reuse and scores lower.
	before := c.score(r)
	for i := 0; i < 20; i++ {
		c.EndStep() // no requests recorded
	}
	if after := c.score(r); after >= before {
		t.Fatalf("reuse did not decay: %v -> %v", before, after)
	}

	// makeRoom never evicts to fit lower-score data.
	if c.makeRoom(c.Capacity(), r) {
		t.Fatal("makeRoom evicted the only (equal-score) run for itself")
	}
}

// TestTrimmedLevelReturnsEveryByte: at a fractional payload scale, a
// level staged chunk by chunk to a partial prefix and then trimmed back to
// nothing leaves the fast tier holding what it held before, and once the
// cache closes and the store is released both tiers hold exactly 0.
// Staging and eviction cut the level at different entries, so their
// whole-byte reservations agree only as differences of one cumulative
// rounding.
func TestTrimmedLevelReturnsEveryByte(t *testing.T) {
	rg := newRig(t, 0)
	rg.store.Release()
	store, err := staging.StageScaled(rg.h, []*device.Device{rg.ssd, rg.hdd}, 10007.3)
	if err != nil {
		t.Fatal(err)
	}
	c := New(store, rg.ssd, Config{CapacityMB: 1024})
	lo, _, entries := rg.hddLevelRange()
	before := rg.ssd.Used()
	cg := blkio.NewCgroup("bg")
	rg.eng.Spawn("prefetch", func(p *sim.Proc) { c.PrefetchTo(p, cg, lo+entries*2/3+1, nil) })
	if err := rg.eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	r := c.runForLevel(0)
	if r.prefix <= 2*c.chunkEntries(r) || r.prefix%c.chunkEntries(r) == 0 {
		t.Fatalf("staged %d entries in chunks of %d; want several and a partial one", r.prefix, c.chunkEntries(r))
	}
	// A level read more often trims this one a chunk at a time to nothing.
	r.reuse = 0
	c.capacity = 0
	c.makeRoom(1, &run{level: r.level, home: r.home, reuse: 1})
	if r.prefix != 0 || rg.ssd.Used() != before {
		t.Fatalf("trimmed to %d entries, SSD holds %v B, %v B before staging", r.prefix, rg.ssd.Used(), before)
	}
	c.Close()
	store.Release()
	if rg.ssd.Used() != 0 || rg.hdd.Used() != 0 {
		t.Fatalf("after Close and Release: SSD %v B, HDD %v B", rg.ssd.Used(), rg.hdd.Used())
	}
}

// When the fast tier cannot hold base + cache headroom, the cache is the
// side that shrinks: staged base representations are never displaced.
func TestCapacityPressureShrinksCacheNotBase(t *testing.T) {
	rg := newRig(t, 0)
	// A fresh rig with a tight SSD: room for the staged data plus ~1 MB.
	tight := rg.ssd.Used() + 1*device.MB
	rg2 := newRig(t, tight)

	c := New(rg2.store, rg2.ssd, Config{CapacityMB: 64})
	if c.Capacity() > 1*device.MB {
		t.Fatalf("capacity %v not clamped to free space", c.Capacity())
	}
	if c.Stats().Shrinks != 1 {
		t.Fatalf("shrinks = %d, want 1 (construction clamp)", c.Stats().Shrinks)
	}
	baseUsed := rg2.ssd.Used()

	// Another tenant grabs the remaining headroom; the next prefetch
	// must shrink the cache instead of touching staged reservations.
	if err := rg2.ssd.Reserve(1 * device.MB); err != nil {
		t.Fatal(err)
	}
	_, hi, _ := rg2.hddLevelRange()
	cg := blkio.NewCgroup("bg")
	rg2.eng.Spawn("prefetch", func(p *sim.Proc) {
		c.PrefetchTo(p, cg, hi, nil)
	})
	if err := rg2.eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if c.Capacity() != c.Used() {
		t.Fatalf("capacity %v != used %v after device-full shrink", c.Capacity(), c.Used())
	}
	if c.Stats().Shrinks != 2 {
		t.Fatalf("shrinks = %d, want 2", c.Stats().Shrinks)
	}
	if got := rg2.ssd.Used() - c.Used() - 1*device.MB; got != baseUsed {
		t.Fatalf("staged reservations changed: %v != %v", got, baseUsed)
	}
}

// TestServeZeroAllocUntraced: Serve runs once per segment of every read;
// with no recorder its hit and miss bookkeeping formats and boxes nothing.
func TestServeZeroAllocUntraced(t *testing.T) {
	rg := newRig(t, 0)
	c := New(rg.store, rg.ssd, Config{CapacityMB: 64})
	_, hi, entries := rg.hddLevelRange()
	cg := blkio.NewCgroup("bg")
	rg.eng.Spawn("prefetch", func(p *sim.Proc) { c.PrefetchTo(p, cg, hi-entries/2, nil) })
	if err := rg.eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	allocs := testing.AllocsPerRun(100, func() {
		c.Serve(0, 0, entries)              // partial: a hit and a miss
		c.Serve(0, entries-1, entries)      // miss
		c.Serve(0, 0, c.CachedEntries())    // hit
		c.Serve(1, 0, rg.h.LevelEntries(1)) // level homed on the cache device
	})
	if after := c.Stats(); after.Hits == before.Hits || after.Misses == before.Misses {
		t.Fatalf("no hits or no misses counted: %+v -> %+v", before, after)
	}
	if allocs != 0 {
		t.Fatalf("Serve allocates %.1f objects per four calls with a nil recorder, want 0", allocs)
	}
}
