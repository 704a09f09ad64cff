// Package cache implements a capacity-bounded fast-tier augmentation
// cache plus a predictive prefetcher (see prefetch.go). The cache holds
// prefixes of capacity-tier augmentation levels on an SSD-class device so
// that Algorithm 1's bucket retrievals can be served at fast-tier
// bandwidth during high-interference windows. Admission is driven by the
// prefetcher during forecast quiet windows; eviction is cost-benefit
// aware — a cached run's keep-score is its expected reuse times the
// per-byte cost of refetching it from its home tier, with
// prescribed-bound (mandatory) prefixes made sticky — so coarse,
// always-needed levels stay resident while speculative fine-level data
// is shed first.
//
// The cache is a pure sim-side construct: it runs on the session's
// engine, reserves real capacity on the cache device (never displacing
// staged base representations — when the device cannot grant more, the
// cache shrinks), and is consulted by the staging read paths through the
// staging.CacheView interface.
package cache

import (
	"math"

	"tango/internal/blkio"
	"tango/internal/device"
	"tango/internal/refactor"
	"tango/internal/resil"
	"tango/internal/sim"
	"tango/internal/staging"
	"tango/internal/trace"
)

// chunkMB is the transfer granularity of prefetch staging and the trim
// granularity of eviction. Smaller chunks abort faster when interference
// returns mid-transfer.
const chunkMB = 32

// reuseDecay is the EWMA factor folding each step's observed request
// fraction into a run's expected-reuse score. Typed, so 1-reuseDecay
// rounds as the float64 subtraction it replaced did.
const reuseDecay float64 = 0.3

// Config parameterizes the cache. Zero values take the defaults noted
// per field.
type Config struct {
	// CapacityMB bounds the cache footprint on the fast tier (default
	// 512). The effective capacity is additionally clamped to the free
	// capacity of the cache device at construction, and shrinks at
	// runtime if the device fills up — the cache never displaces staged
	// data.
	CapacityMB int

	// Trace, when non-nil, receives cache hit/miss/evict and prefetch
	// events, from source "cache".
	Trace *trace.Recorder
}

// source labels the cache's trace events.
const source = "cache"

func (c Config) withDefaults() Config {
	if c.CapacityMB == 0 {
		c.CapacityMB = 512
	}
	return c
}

// DefaultConfig returns the defaults spelled out (useful for callers that
// tweak one field).
func DefaultConfig() Config { return Config{}.withDefaults() }

// Stats is a snapshot of the cache counters.
type Stats struct {
	Hits          int     // segment reads served (at least partly) from the cache
	Misses        int     // segment reads that (at least partly) went to the home tier
	HitBytes      float64 // bytes served from the cache device
	StagedBytes   float64 // bytes transferred home tier -> cache by prefetching
	EvictedBytes  float64 // bytes trimmed by cost-benefit eviction
	Shrinks       int     // capacity reductions forced by device pressure
	StageFailures int     // staging reads abandoned by the resil policy
}

// run tracks the cached prefix of one augmentation level whose home tier
// is not the cache device. Entries are level-local indices; [0, prefix)
// is resident on the cache device.
type run struct {
	level       int
	home        *device.Device
	globalStart int     // cursor position where this level's entries begin
	total       int     // entries at this level
	prefix      int     // cached entries [0, prefix); the device holds held(r, prefix) for them
	reuse       float64 // EWMA of per-step requested fraction of the level

	reqEntries int // entries requested this step (reset by EndStep)
}

// Cache is the fast-tier augmentation cache. It is driven entirely from
// sim context (single-threaded engine), so it needs no locking; the lint
// suite keeps it that way.
type Cache struct {
	cfg       Config
	h         *refactor.Hierarchy
	dev       *device.Device
	scale     float64
	runs      []*run // cursor order (coarse level first)
	capacity  float64
	used      float64 // bytes staged and not evicted, as transferred (the device holds them in whole bytes)
	mandatory int
	closed    bool
	stats     Stats
	rc        *resil.Controller // its prefetch.stage key reads the home tier (nil: plain reads)
}

// SetResil routes the staging reads a staging run issues against the home
// tier through rc's prefetch.stage key: under the catalog of resil.New
// deadlined, budgeted, and breaker-gated, so a faulted capacity tier
// pauses background staging instead of wedging the prefetch process; the
// adhoc catalog's row is direct, a plain read.
func (c *Cache) SetResil(rc *resil.Controller) { c.rc = rc }

// New builds a cache over the staged hierarchy, holding data on dev (the
// fast tier). Only augmentation levels homed on other devices are
// cacheable. The requested capacity is clamped to dev's free capacity —
// staged base representations are never displaced; if the tier cannot
// hold base plus the full cache headroom, the cache is the side that
// shrinks.
func New(store *staging.Store, dev *device.Device, cfg Config) *Cache {
	if dev == nil {
		panic("cache: nil device")
	}
	cfg = cfg.withDefaults()
	h := store.Hierarchy()
	c := &Cache{
		cfg:      cfg,
		h:        h,
		dev:      dev,
		scale:    store.Scale(),
		capacity: float64(cfg.CapacityMB) * device.MB,
	}
	if cap := dev.Params().Capacity; cap > 0 {
		if free := cap - dev.Used(); c.capacity > free {
			c.capacity = free
			if c.capacity < 0 {
				c.capacity = 0
			}
			c.stats.Shrinks++
			cfg.Trace.Emit(dev.Engine().Now(), source, trace.KindCacheEvict, "capacity clamped to %.0f B free on %s (staged data keeps priority)", c.capacity, dev.Name())
		}
	}
	g := 0
	for _, seg := range h.Segments(0, h.TotalEntries()) {
		if home := store.DeviceForLevel(seg.Level); home != dev {
			c.runs = append(c.runs, &run{
				level:       seg.Level,
				home:        home,
				globalStart: g,
				total:       seg.End - seg.Start,
				reuse:       1, // optimistic: every level starts fully reusable
			})
		}
		g += seg.End - seg.Start
	}
	return c
}

// Capacity returns the current (possibly shrunk) byte budget.
func (c *Cache) Capacity() float64 { return c.capacity }

// Used returns the bytes currently resident.
func (c *Cache) Used() float64 { return c.used }

// CachedEntries returns the total augmentation entries resident.
func (c *Cache) CachedEntries() int {
	n := 0
	for _, r := range c.runs {
		n += r.prefix
	}
	return n
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// SetMandatory marks the cursor prefix the prescribed error bound
// requires: cached runs inside it are sticky under eviction (they will be
// re-requested every step by construction).
func (c *Cache) SetMandatory(cursor int) { c.mandatory = cursor }

// Serve implements staging.CacheView: it reports how many leading entries
// of the level-local range [start, end) are resident, and on which
// device. It also does the per-request bookkeeping (hit/miss counters,
// reuse statistics), so staging calls it exactly once per segment read.
//
//tango:hotpath
func (c *Cache) Serve(level, start, end int) (*device.Device, int) {
	if c.closed || end <= start {
		return nil, 0
	}
	r := c.runForLevel(level)
	if r == nil {
		return nil, 0 // level homed on the cache device already
	}
	r.reqEntries += end - start
	served := 0
	if start < r.prefix {
		served = min(end, r.prefix) - start
	}
	if served > 0 {
		bytes := float64(c.h.LevelBytes(level, start, start+served)) * c.scale
		c.stats.Hits++
		c.stats.HitBytes += bytes
		c.cfg.Trace.Emit(c.dev.Engine().Now(), source, trace.KindCacheHit, "level=%d entries=[%d,%d) served=%d bytes=%.0f", level, start, end, served, bytes)
	}
	if served < end-start {
		c.stats.Misses++
		c.cfg.Trace.Emit(c.dev.Engine().Now(), source, trace.KindCacheMiss, "level=%d entries=[%d,%d) uncached=%d", level, start, end, end-start-served)
	}
	if served == 0 {
		return nil, 0
	}
	return c.dev, served
}

// EndStep folds the step's request pattern into each run's expected-reuse
// EWMA. The controller calls it once per analysis step.
func (c *Cache) EndStep() {
	for _, r := range c.runs {
		if r.total == 0 {
			continue
		}
		req := float64(r.reqEntries) / float64(r.total)
		if req > 1 {
			req = 1
		}
		r.reuse = (1-reuseDecay)*r.reuse + reuseDecay*req
		r.reqEntries = 0
	}
}

func (c *Cache) runForLevel(level int) *run {
	for _, r := range c.runs {
		if r.level == level {
			return r
		}
	}
	return nil
}

// score is the cost-benefit keep-score of a run, per byte: expected reuse
// times the per-byte cost of refetching from the home tier. Runs inside
// the mandatory (prescribed-bound) prefix are strongly sticky — they are
// re-read every step no matter what the interference does.
func (c *Cache) score(r *run) float64 {
	s := (0.1 + r.reuse) / r.home.Params().PeakBandwidth
	if r.globalStart < c.mandatory {
		s *= 8
	}
	return s
}

// chunkEntries converts the byte chunk size to an entry count for one
// run, using the level's mean entry encoding size.
func (c *Cache) chunkEntries(r *run) int {
	if r.total == 0 {
		return 1
	}
	avg := float64(c.h.LevelBytes(r.level, 0, r.total)) * c.scale / float64(r.total)
	if avg <= 0 {
		return r.total
	}
	n := int(chunkMB * device.MB / avg)
	if n < 1 {
		n = 1
	}
	return n
}

// held is the device reservation backing r's entries [0, prefix): whole
// bytes of the cumulative size, so every range's reservation is a
// difference of two of them and the ranges staged and trimmed sum exactly.
func (c *Cache) held(r *run, prefix int) float64 {
	return math.Round(float64(c.h.LevelBytes(r.level, 0, prefix)) * c.scale)
}

// makeRoom evicts low-score tails until `need` more bytes fit, never
// trimming a run that scores at least as high as the incoming one.
// Returns false when the bytes cannot be freed.
func (c *Cache) makeRoom(need float64, incoming *run) bool {
	for c.used+need > c.capacity {
		var victim *run
		worst := 0.0
		for _, r := range c.runs {
			if r == incoming || r.prefix == 0 {
				continue
			}
			if s := c.score(r); victim == nil || s < worst {
				victim, worst = r, s
			}
		}
		if victim == nil || worst >= c.score(incoming) {
			return false
		}
		newPrefix := victim.prefix - c.chunkEntries(victim)
		if newPrefix < 0 {
			newPrefix = 0
		}
		freed := float64(c.h.LevelBytes(victim.level, newPrefix, victim.prefix)) * c.scale
		c.dev.Release(c.held(victim, victim.prefix) - c.held(victim, newPrefix))
		victim.prefix = newPrefix
		c.used -= freed
		c.stats.EvictedBytes += freed
		c.cfg.Trace.Emit(c.dev.Engine().Now(), source, trace.KindCacheEvict, "level=%d trimmed to %d entries (freed %.0f B, score=%.3g)", victim.level, newPrefix, freed, worst)
	}
	return true
}

// shrink reduces the capacity to the current footprint after the device
// refused a reservation: something else (staged data) claimed the space,
// and staged data always wins over cache headroom.
func (c *Cache) shrink() {
	c.capacity = c.used
	c.stats.Shrinks++
	c.cfg.Trace.Emit(c.dev.Engine().Now(), source, trace.KindCacheEvict, "device %s full: capacity shrunk to %.0f B", c.dev.Name(), c.capacity)
}

// PrefetchTo stages augmentation up to the global cursor `target` into
// the cache, transferring home-tier bytes chunk by chunk under cg (the
// background cgroup), and blocks p until the staging run ends; the
// prefetcher runs the same staging on engine callbacks. keepGoing, when
// non-nil, is polled between chunks so a caller can abort mid-run when
// interference returns. Returns the bytes staged and whether the run was
// aborted. A cache closed while a chunk is in flight gives that chunk
// back and stops.
func (c *Cache) PrefetchTo(p *sim.Proc, cg *blkio.Cgroup, target int, keepGoing func() bool) (staged float64, aborted bool) {
	w := &stageWaiter{p: p, poll: keepGoing, waiting: true}
	if w.run.start(c, cg, target, w) {
		for w.waiting {
			p.Suspend()
		}
	}
	return w.run.staged, w.run.aborted
}

// stageWaiter is a process blocked on a staging run.
type stageWaiter struct {
	run     stageRun
	p       *sim.Proc
	poll    func() bool
	waiting bool
}

func (w *stageWaiter) keepGoing() bool { return w.poll == nil || w.poll() }

func (w *stageWaiter) stageDone() {
	w.waiting = false
	w.p.Engine().Wake(w.p)
}

// stager is what a staging run polls between chunks (false aborts it) and
// tells when it has ended, if start left it in flight. The prefetcher is
// one itself, so its runs allocate nothing.
type stager interface {
	keepGoing() bool
	stageDone()
}

// stageRun is a staging run made of engine callbacks: per chunk, a read
// from the level's home tier (a prefetch.stage key read, or a plain read
// without a controller), its write into the cache device, and the poll.
// Each transfer reports to the run in the slot where a process blocked
// on it was woken.
type stageRun struct {
	c       *Cache
	cg      *blkio.Cgroup
	target  int
	by      stager
	phase   stagePhase
	ri      int     // the run (cache level) being staged
	next    int     // the chunk in flight ends at this entry of it
	bytes   float64 // the chunk's bytes
	held    float64 // the chunk's device reservation, in whole bytes
	staged  float64
	aborted bool
	tok     device.Token // the chunk's write
	rop     resil.ReadOp // the chunk's read
}

type stagePhase uint8

const (
	stagePick    stagePhase = iota // pick, reserve and read the next chunk
	stageRead                      // the chunk's read has ended: write it
	stageWritten                   // its write has ended: take it in, then poll
)

// start begins staging up to target and reports whether the run is in
// flight.
func (sr *stageRun) start(c *Cache, cg *blkio.Cgroup, target int, by stager) bool {
	*sr = stageRun{c: c, cg: cg, target: target, by: by}
	return !c.closed && sr.run()
}

// run carries the staging on until a transfer is in flight (true) or the
// run has ended (false). A chunk that was taken in, or had no bytes, is
// followed by the poll.
func (sr *stageRun) run() bool {
	c := sr.c
	for {
		switch sr.phase {
		case stagePick:
			r := sr.pick()
			if r == nil {
				return false
			}
			if sr.bytes <= 0 {
				r.prefix = sr.next
				break
			}
			if !c.makeRoom(sr.bytes, r) {
				return false // capacity-bound: higher-value data stays
			}
			if !c.dev.TryReserve(sr.held) {
				// The device filled up underneath us (more data was
				// staged): the cache shrinks rather than displacing it.
				c.shrink()
				return false
			}
			sr.phase = stageRead
			if sr.rop.Start(c.rc.Key(resil.KeyPrefetchStage), r.home, sr.cg, sr.bytes, sr) {
				return true
			}
			continue
		case stageRead:
			if !sr.rop.Res.OK {
				// The home tier is faulted or the stage budget ran out:
				// give the reservation back and end this run — the next
				// quiet-window tick resumes from the level's prefix.
				c.dev.Release(sr.held)
				c.stats.StageFailures++
				sr.aborted = true
				return false
			}
			sr.phase = stageWritten
			if ended, _ := c.dev.Begin(sr.cg, sr.bytes, true, false, &sr.tok, 0, sr); !ended {
				return true
			}
			continue
		case stageWritten:
			if c.closed {
				// Close ran during the transfers and released every
				// reservation but this one, which no run holds yet.
				c.dev.Release(sr.held)
				return false
			}
			r := c.runs[sr.ri]
			c.used += sr.bytes
			c.stats.StagedBytes += sr.bytes
			sr.staged += sr.bytes
			r.prefix = sr.next
		}
		if !sr.by.keepGoing() {
			sr.aborted = true
			return false
		}
		sr.phase = stagePick
	}
}

// pick finds the next chunk to stage, coarse level first, and returns its
// run, or nil when every level is staged up to the target.
func (sr *stageRun) pick() *run {
	c := sr.c
	for ; sr.ri < len(c.runs); sr.ri++ {
		r := c.runs[sr.ri]
		want := min(sr.target-r.globalStart, r.total)
		if r.prefix < want {
			sr.next = min(r.prefix+c.chunkEntries(r), want)
			sr.bytes = float64(c.h.LevelBytes(r.level, r.prefix, sr.next)) * c.scale
			sr.held = c.held(r, sr.next) - c.held(r, r.prefix)
			return r
		}
	}
	return nil
}

// carryOn goes on from a transfer that ended.
func (sr *stageRun) carryOn() {
	if !sr.run() {
		sr.by.stageDone()
	}
}

// TransferDone is the chunk's read or its write ending.
func (sr *stageRun) TransferDone(*device.Token, error) { sr.carryOn() }

// Close releases every reservation and detaches the cache from service:
// Serve misses and PrefetchTo is a no-op afterwards. Idempotent; called
// when the owning session exits (ephemeral data is erased).
func (c *Cache) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, r := range c.runs {
		c.dev.Release(c.held(r, r.prefix))
		r.prefix = 0
	}
	c.used = 0
}
