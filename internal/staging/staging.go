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

	rc *resil.Controller // resilience control plane (nil = ad-hoc retry loops)

	rec *trace.Recorder // the ad-hoc paths' retries and degrades (nil: untraced)
	src string          // their event source
}

// SetCache attaches a fast-tier cache to the augmentation read paths:
// each segment's cached prefix is read from the cache device instead of
// the level's home tier. Pass nil to detach.
func (s *Store) SetCache(c CacheView) { s.cache = c }

// SetTrace records the ad-hoc guarded reads' recovery actions (retries,
// degrades) to rec under source; nil leaves them untraced.
func (s *Store) SetTrace(rec *trace.Recorder, source string) { s.rec, s.src = rec, source }

// SetResil routes the guarded read paths (and Probe) through the
// resilience control plane: per-attempt deadlines, classified retries,
// budgets, breakers, and — when the controller enables it — hedged reads
// racing a cache-resident prefix against its capacity-tier home copy.
// A store SetResil was never called on keeps its ad-hoc retry loop.
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
		ti := len(tiers) - 1 - l
		if ti < 0 {
			ti = 0
		}
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

// ReadRangeParallel reads the augmentation cursor range [from, to) with
// one concurrent reader per tier, overlapping fast- and capacity-tier
// transfers. The caller's process blocks until every tier finishes. This
// is an optimization beyond the paper's sequential Algorithm 1 loop
// (evaluated by the ablation-parallel experiment): it shortens the total
// step time but gives up the coarse-first completion order that the
// sequential path provides.
func (s *Store) ReadRangeParallel(p *sim.Proc, cg *blkio.Cgroup, from, to int) (ts TierStats) {
	// Split every segment once up front (Serve does per-call hit/miss
	// bookkeeping, so it must run exactly once per segment), then group
	// the resulting parts by device, in first-appearance order.
	var reads []tierRead
	var buf [segScratch]refactor.Segment
	for _, seg := range s.h.AppendSegments(buf[:0], from, to) {
		parts, n := s.segmentParts(seg)
		for _, part := range parts[:n] {
			i := 0
			for i < len(reads) && reads[i].dev != part.dev {
				i++
			}
			if i == len(reads) {
				reads = append(reads, tierRead{dev: part.dev})
			}
			reads[i].parts = append(reads[i].parts, part)
		}
	}
	if len(reads) == 0 {
		return ts
	}
	if len(reads) == 1 {
		// Single tier: no concurrency to exploit.
		for _, part := range reads[0].parts {
			el := part.dev.Read(p, cg, part.bytes)
			ts.add(part.dev, part.bytes, el)
		}
		return ts
	}
	j := &tierJoin{cg: cg, p: p, left: len(reads)}
	eng := p.Engine()
	for i := range reads {
		reads[i].j = j
		eng.AtCall(eng.Now(), &reads[i])
	}
	for j.left > 0 {
		p.Suspend()
	}
	for i := range reads {
		ts.Merge(reads[i].ts)
	}
	return ts
}

// tierRead is one tier's share of a ReadRangeParallel: its parts read
// back to back as Start flows, the next one started from the last one's
// TransferDone. Its first Fire is armed where a per-tier reader process
// used to be spawned, and each flow ends in the slot that process's
// wake-up took, so the reads are the process loop's, event for event.
type tierRead struct {
	j     *tierJoin
	dev   *device.Device
	parts []segPart
	next  int     // the part in flight
	start float64 // when it started
	tok   device.Token
	ts    TierStats
}

// tierJoin is what a ReadRangeParallel's tier reads share: the cgroup they
// read under and the blocked caller, woken by the last one to end.
type tierJoin struct {
	cg   *blkio.Cgroup
	p    *sim.Proc
	left int
}

// Fire starts the tier's next part: the first one from its own event,
// each later one from the last one's TransferDone.
func (r *tierRead) Fire() {
	r.start = r.dev.Engine().Now()
	r.dev.Start(r.j.cg, r.parts[r.next].bytes, false, &r.tok, r)
}

// TransferDone records the part that ended and starts the next, or wakes
// the caller when this was the last part of the last tier still reading.
func (r *tierRead) TransferDone(*device.Token, error) {
	eng := r.dev.Engine()
	r.ts.add(r.dev, r.parts[r.next].bytes, eng.Now()-r.start)
	if r.next++; r.next < len(r.parts) {
		r.Fire()
		return
	}
	if r.j.left--; r.j.left == 0 {
		eng.Wake(r.j.p)
	}
}

// The ad-hoc guarded read paths' reaction to transient read errors (see
// internal/fault). Only OPTIONAL augmentation has a retry budget;
// mandatory data (the base representation and augmentation the error
// bound requires) is retried indefinitely, because degradation must
// never violate the bound.
const (
	retryAttempts = 4    // tries per optional segment before the read degrades
	retryBackoff  = 0.05 // first retry delay, virtual seconds
	retryFactor   = 2.0  // delay multiplier per attempt
	retryMax      = 5.0  // delay cap, virtual seconds
)

// GuardedOutcome reports what a guarded read actually achieved.
type GuardedOutcome struct {
	Cursor   int  // absolute cursor reached (== `to` unless degraded)
	Retries  int  // failed requests that were retried
	Degraded bool // optional augmentation was abandoned mid-range
}

// retryRead reads bytes from dev, retrying transient errors with
// exponential virtual-time backoff. If bounded is true the retry budget
// is retryAttempts, after which it gives up and reports failure;
// otherwise it retries until the fault clears. Returns the elapsed time
// (including backoff sleeps), the retries spent, and success.
func (s *Store) retryRead(p *sim.Proc, dev *device.Device, cg *blkio.Cgroup, bytes float64, bounded bool) (float64, int, bool) {
	start := p.Now()
	delay := retryBackoff
	retries := 0
	for attempt := 1; ; attempt++ {
		_, err := dev.TryRead(p, cg, bytes)
		if err == nil {
			return p.Now() - start, retries, true
		}
		if bounded && attempt >= retryAttempts {
			return p.Now() - start, retries, false
		}
		retries++
		s.rec.Emit(p.Now(), s.src, trace.KindRecover, "retry dev=%s attempt=%d backoff=%.3fs bytes=%.0f", dev.Name(), attempt, delay, bytes)
		p.Sleep(delay)
		delay *= retryFactor
		if delay > retryMax {
			delay = retryMax
		}
	}
}

// ReadBaseGuarded is ReadBase with unbounded retry: the base
// representation is mandatory at every step, so a transient fault delays
// the read rather than failing it.
func (s *Store) ReadBaseGuarded(p *sim.Proc, cg *blkio.Cgroup) (ts TierStats, _ GuardedOutcome) {
	bytes := float64(s.h.BaseBytes()) * s.scale
	if s.rc != nil {
		res := s.rc.Key(resil.KeyStagingReadBase).Read(p, s.baseDev, cg, bytes)
		ts.add(s.baseDev, res.Moved, res.Elapsed)
		return ts, GuardedOutcome{Cursor: 0, Retries: res.Retries}
	}
	el, retries, _ := s.retryRead(p, s.baseDev, cg, bytes, false)
	ts.add(s.baseDev, bytes, el)
	return ts, GuardedOutcome{Cursor: 0, Retries: retries}
}

// ReadRangeGuarded is ReadRange hardened against injected read errors.
// Segments whose entries fall at or below `mandatory` (the cursor the
// prescribed error bound requires) are retried until they succeed;
// optional segments get retryAttempts tries each, after which the read
// DEGRADES: the remaining optional augmentation is skipped and the
// outcome reports the cursor actually reached. The caller's accuracy
// never drops below the bound — only above-bound augmentation is shed.
func (s *Store) ReadRangeGuarded(p *sim.Proc, cg *blkio.Cgroup, from, to, mandatory int) (ts TierStats, out GuardedOutcome) {
	out.Cursor = from
	var buf [segScratch]refactor.Segment
	for _, seg := range s.h.AppendSegments(buf[:0], from, to) {
		home := s.DeviceForLevel(seg.Level)
		parts, n := s.segmentParts(seg)
		for _, part := range parts[:n] {
			needed := out.Cursor < mandatory // part starts inside the mandatory prefix
			var retries int
			var ok bool
			if s.rc != nil {
				retries, ok = s.resilPart(p, cg, &ts, part, home, needed)
			} else {
				var el float64
				el, retries, ok = s.retryRead(p, part.dev, cg, part.bytes, !needed)
				ts.add(part.dev, part.bytes, el)
			}
			out.Retries += retries
			if !ok {
				out.Degraded = true
				s.rec.Emit(p.Now(), s.src, trace.KindRecover, "degrade dev=%s cursor=%d of %d (fall back to lower augmentation)", part.dev.Name(), out.Cursor, to)
				return ts, out
			}
			out.Cursor += part.entries
		}
	}
	return ts, out
}

// resilPart reads one segment part through the resilience control plane.
// A cache-resident prefix (part.dev != home) is a hedging opportunity:
// the same byte range exists on both the cache device and the level's
// home tier, so the controller may race them and cancel the loser. On
// any non-hedged (or failed-hedge) path the part goes through the
// policy-keyed guarded read: unbounded for mandatory data, bounded and
// degradable for optional augmentation.
func (s *Store) resilPart(p *sim.Proc, cg *blkio.Cgroup, ts *TierStats, part segPart, home *device.Device, needed bool) (retries int, ok bool) {
	if part.dev != home {
		hr := s.rc.Key(resil.KeyStagingReadHedge).HedgedRead(p, part.dev, home, cg, part.bytes)
		if hr.OK {
			winDev, loserDev := part.dev, home
			winMoved, loserMoved := hr.FastMoved, hr.SlowMoved
			if !hr.FastWon {
				winDev, loserDev = home, part.dev
				winMoved, loserMoved = hr.SlowMoved, hr.FastMoved
			}
			ts.add(winDev, winMoved, hr.Elapsed)
			if loserMoved > 0 {
				// The cancelled leg's partial bytes are real transfers on
				// that device; its time overlapped the winner's, so only
				// the bytes are recorded.
				ts.add(loserDev, loserMoved, 0)
			}
			return 0, true
		}
		// Hedged but both legs failed (the controller counted the waste):
		// fall through to the single-device policy path.
	}
	id := resil.KeyStagingReadOptional
	if needed {
		id = resil.KeyStagingReadCapacity
	}
	res := s.rc.Key(id).Read(p, part.dev, cg, part.bytes)
	ts.add(part.dev, res.Moved, res.Elapsed)
	return res.Retries, res.OK
}

// Probe reads `bytes` from the slowest tier to sample its available
// bandwidth; used by the controller when a step retrieved nothing from
// the capacity tier but the estimator still needs a measurement. With
// the resilience control plane attached the probe is deadlined
// (staging.probe.capacity): a stuck capacity tier can no longer wedge
// the control loop — the partial transfer still yields an honest (low)
// bandwidth sample, and a probe that moved nothing yields no sample,
// which the controller treats like a step with no capacity-tier reads.
func (s *Store) Probe(p *sim.Proc, cg *blkio.Cgroup, bytes float64) (ts TierStats) {
	dev := s.SlowestDevice()
	if s.rc != nil {
		res := s.rc.Key(resil.KeyStagingProbe).Read(p, dev, cg, bytes)
		if res.Moved > 0 {
			ts.add(dev, res.Moved, res.Elapsed)
		}
		return ts
	}
	el := dev.Read(p, cg, bytes)
	ts.add(dev, bytes, el)
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
