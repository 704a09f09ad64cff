// Package staging places a refactored dataset onto the local ephemeral
// storage hierarchy and provides the tier-aware read path used during
// analysis. Placement follows the paper's Fig 3: the base representation
// Ω^{L-1} lives on the fastest tier, and the augmentation of level l is
// staged on tier ST^l — finest (largest) augmentation on the slowest
// (capacity) tier, coarser augmentations on faster tiers. Before a job
// starts the data is staged in; after it exits, Release erases it
// (ephemeral storage).
//
// Every read method returns its per-tier breakdown as a TierStats value:
// a fixed-size record, so a step builds, merges and drops several without
// touching the allocator. A copy of one that has spilled (more than four
// devices) shares the spill with its source: keep one, Merge the others.
package staging

import (
	"fmt"
	"math"

	"tango/internal/blkio"
	"tango/internal/device"
	"tango/internal/refactor"
	"tango/internal/resil"
	"tango/internal/sim"
	"tango/internal/trace"
)

// CacheView is the read-side interface of the fast-tier augmentation
// cache (implemented by internal/cache). Staging depends only on this
// interface so the layering stays acyclic: cache imports staging, never
// the reverse.
type CacheView interface {
	// Serve reports how many leading entries of the level-local entry
	// range [start, end) are resident in the cache, and the device
	// holding them. Serve also performs the cache's own bookkeeping
	// (hit/miss counters, reuse statistics, trace events), so the store
	// consults it exactly once per segment actually read.
	Serve(level, start, end int) (dev *device.Device, entries int)
}

// Store is a staged hierarchy: every piece has a tier assignment and the
// capacity has been reserved on the devices.
type Store struct {
	h        *refactor.Hierarchy
	baseDev  *device.Device
	levelDev []*device.Device // aug level -> device
	scale    float64
	released bool
	cache    CacheView

	rc  *resil.Controller // what an Op reads through (nil: plain reads)
	rec *trace.Recorder   // an Op's degrades (nil: untraced)
	src string            // their event source
}

// SetCache attaches a fast-tier cache to the augmentation read paths:
// each segment's cached prefix is read from the cache device instead of
// the level's home tier. Pass nil to detach.
func (s *Store) SetCache(c CacheView) { s.cache = c }

// SetTrace records an Op's degrades to rec under source; nil leaves them
// untraced. The controller traces its own retries.
func (s *Store) SetTrace(rec *trace.Recorder, source string) { s.rec, s.src = rec, source }

// SetResil routes the guarded reads and the probe of an Op through rc's
// keys: under resil.New per-attempt deadlines, classified retries,
// budgets, breakers, and — when the controller enables it — hedged reads
// racing a cache-resident prefix against its capacity-tier home copy;
// under resil.NewAdhoc fixed unbudgeted retries and a plain probe. A
// store SetResil was never called on reads plainly. The blocking
// ReadBase, ReadRange and Probe ignore the controller.
func (s *Store) SetResil(rc *resil.Controller) { s.rc = rc }

// Stage places h across the given tiers (fastest first, as returned by
// container.Node.Tiers) and reserves capacity. It fails if any tier would
// exceed its capacity.
func Stage(h *refactor.Hierarchy, tiers []*device.Device) (*Store, error) {
	return StageScaled(h, tiers, 1)
}

// StageScaled is Stage with a per-point payload scale factor: every byte
// count (reservation and reads) is multiplied by scale. This models
// datasets whose points carry more than one float64 — the paper's
// production meshes hold tens of millions of elements with multiple
// variables, so a simulated grid of n points staged at scale s behaves
// like an n·s-byte-per-8 dataset on the I/O path while keeping the
// decomposition arithmetic at grid scale. Entry cardinalities (used by
// the weight function) are unaffected.
func StageScaled(h *refactor.Hierarchy, tiers []*device.Device, scale float64) (*Store, error) {
	if len(tiers) == 0 {
		return nil, fmt.Errorf("staging: no tiers")
	}
	if !(scale > 0) || math.IsInf(scale, 1) {
		return nil, fmt.Errorf("staging: scale %v must be finite and > 0", scale)
	}
	s := &Store{h: h, baseDev: tiers[0], scale: scale}
	augLevels := h.Levels() - 1
	s.levelDev = make([]*device.Device, augLevels)
	for l := 0; l < augLevels; l++ {
		// Paper tier indexing: ST^0 is the slowest. tiers[] is fastest
		// first, so aug level l (0 = finest) maps to tiers[len-1-l],
		// clamped to the fastest tier for deep hierarchies.
		ti := max(len(tiers)-1-l, 0)
		s.levelDev[l] = tiers[ti]
	}

	// Reserve capacity; roll back on failure.
	type reservation struct {
		dev   *device.Device
		bytes float64
	}
	var done []reservation
	reserve := func(dev *device.Device, bytes float64) error {
		if err := dev.Reserve(bytes); err != nil {
			return err
		}
		done = append(done, reservation{dev, bytes})
		return nil
	}
	rollback := func() {
		for _, r := range done {
			r.dev.Release(r.bytes)
		}
	}
	if err := reserve(s.baseDev, float64(h.BaseBytes())*scale); err != nil {
		rollback()
		return nil, fmt.Errorf("staging: base: %w", err)
	}
	for l := 0; l < augLevels; l++ {
		bytes := s.levelBytes(l)
		if err := reserve(s.levelDev[l], bytes); err != nil {
			rollback()
			return nil, fmt.Errorf("staging: aug level %d: %w", l, err)
		}
	}
	return s, nil
}

// levelBytes returns the staged size of one level's full augmentation.
func (s *Store) levelBytes(level int) float64 {
	var total float64
	var buf [segScratch]refactor.Segment
	for _, seg := range s.h.AppendSegments(buf[:0], 0, s.h.TotalEntries()) {
		if seg.Level == level {
			total += float64(seg.Bytes)
		}
	}
	return total * s.scale
}

// Scale returns the store's payload scale factor.
func (s *Store) Scale() float64 { return s.scale }

// Hierarchy returns the staged hierarchy.
func (s *Store) Hierarchy() *refactor.Hierarchy { return s.h }

// BaseDevice returns the tier holding the base representation.
func (s *Store) BaseDevice() *device.Device { return s.baseDev }

// DeviceForLevel returns the tier holding augmentation level l.
func (s *Store) DeviceForLevel(l int) *device.Device {
	if l < 0 || l >= len(s.levelDev) {
		panic(fmt.Sprintf("staging: no augmentation level %d", l))
	}
	return s.levelDev[l]
}

// SlowestDevice returns the slowest tier used by this store (the device
// holding the finest augmentation, or the base device if L == 1).
func (s *Store) SlowestDevice() *device.Device {
	if len(s.levelDev) == 0 {
		return s.baseDev
	}
	return s.levelDev[0]
}

// TierStats is the per-read breakdown the read methods return, by value
// (zero value: empty). It accumulates in first-appearance order (not map
// order) so downstream float arithmetic stays deterministic across runs.
type TierStats struct {
	n      int // entries used in inline
	inline [tierInline]tierEntry
	spill  []tierEntry // all entries, from the (tierInline+1)th device on
}

// tierInline is how many devices a TierStats records without allocating
// (the paper's nodes have two tiers).
const tierInline = 4

type tierEntry struct {
	dev         *device.Device
	bytes, time float64
}

func (ts *TierStats) entries() []tierEntry {
	if ts.spill != nil {
		return ts.spill
	}
	return ts.inline[:ts.n]
}

//tango:hotpath
func (ts *TierStats) add(dev *device.Device, bytes, t float64) {
	es := ts.entries()
	for i := range es {
		if es[i].dev == dev {
			es[i].bytes += bytes
			es[i].time += t
			return
		}
	}
	if len(es) < tierInline {
		ts.inline[ts.n] = tierEntry{dev, bytes, t}
		ts.n++
		return
	}
	if ts.spill == nil {
		// Copy, never alias: a spill that pointed into inline would force
		// every TierStats to the heap.
		ts.spill = append(ts.spill, es...)
	}
	ts.spill = append(ts.spill, tierEntry{dev, bytes, t})
}

// Merge folds other into ts.
//
//tango:hotpath
func (ts *TierStats) Merge(other TierStats) {
	for _, e := range other.entries() {
		ts.add(e.dev, e.bytes, e.time)
	}
}

// BytesOn returns the bytes read from dev.
func (ts TierStats) BytesOn(dev *device.Device) float64 {
	for _, e := range ts.entries() {
		if e.dev == dev {
			return e.bytes
		}
	}
	return 0
}

// TimeOn returns the time spent reading from dev.
func (ts TierStats) TimeOn(dev *device.Device) float64 {
	for _, e := range ts.entries() {
		if e.dev == dev {
			return e.time
		}
	}
	return 0
}

// Total returns the summed bytes and time across tiers.
//
//tango:hotpath
func (ts TierStats) Total() (bytes, t float64) {
	for _, e := range ts.entries() {
		bytes += e.bytes
		t += e.time
	}
	return bytes, t
}

// ReadBase reads the base representation under cg, blocking p. Returns
// per-tier stats.
func (s *Store) ReadBase(p *sim.Proc, cg *blkio.Cgroup) (ts TierStats) {
	bytes := float64(s.h.BaseBytes()) * s.scale
	el := s.baseDev.Read(p, cg, bytes)
	ts.add(s.baseDev, bytes, el)
	return ts
}

// segPart is one device-homogeneous piece of a segment read: with a
// cache attached a segment splits into a cached prefix (served by the
// cache device) and an uncached remainder (served by the home tier).
type segPart struct {
	dev     *device.Device
	entries int
	bytes   float64
}

// segScratch sizes the read paths' stack array of segments (one per
// augmentation level); a deeper hierarchy only makes AppendSegments grow.
const segScratch = 8

// segmentParts splits one segment read across the cache and the level's
// home tier: parts[:n], n 1 or 2. Without a cache (or on a full miss) the
// segment is a single home-tier part.
//
//tango:hotpath
func (s *Store) segmentParts(seg refactor.Segment) (parts [2]segPart, n int) {
	home := s.DeviceForLevel(seg.Level)
	parts[0] = segPart{home, seg.End - seg.Start, float64(seg.Bytes) * s.scale}
	if s.cache == nil {
		return parts, 1
	}
	cdev, cached := s.cache.Serve(seg.Level, seg.Start, seg.End)
	if cached <= 0 || cdev == nil || cdev == home {
		return parts, 1
	}
	if cached >= parts[0].entries {
		parts[0].dev = cdev
		return parts, 1
	}
	mid := seg.Start + cached
	parts[0] = segPart{cdev, cached, float64(s.h.LevelBytes(seg.Level, seg.Start, mid)) * s.scale}
	parts[1] = segPart{home, seg.End - mid, float64(s.h.LevelBytes(seg.Level, mid, seg.End)) * s.scale}
	return parts, 2
}

// ReadRange reads the augmentation cursor range [from, to) under cg,
// visiting tiers coarse-level first (the order Algorithm 1 retrieves
// buckets). Returns per-tier stats.
func (s *Store) ReadRange(p *sim.Proc, cg *blkio.Cgroup, from, to int) (ts TierStats) {
	var buf [segScratch]refactor.Segment
	for _, seg := range s.h.AppendSegments(buf[:0], from, to) {
		parts, n := s.segmentParts(seg)
		for _, part := range parts[:n] {
			el := part.dev.Read(p, cg, part.bytes)
			ts.add(part.dev, part.bytes, el)
		}
	}
	return ts
}

// Probe reads `bytes` from the slowest tier under cg, blocking p, to
// sample its available bandwidth. Op.Probe is the controller's probe.
func (s *Store) Probe(p *sim.Proc, cg *blkio.Cgroup, bytes float64) (ts TierStats) {
	dev := s.SlowestDevice()
	ts.add(dev, bytes, dev.Read(p, cg, bytes))
	return ts
}

// Release frees the reserved capacity (the ephemeral data is erased when
// the job exits). Release is idempotent.
func (s *Store) Release() {
	if s.released {
		return
	}
	s.released = true
	s.baseDev.Release(float64(s.h.BaseBytes()) * s.scale)
	for l, dev := range s.levelDev {
		dev.Release(s.levelBytes(l))
	}
}
