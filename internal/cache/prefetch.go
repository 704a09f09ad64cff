package cache

import (
	"tango/internal/blkio"
	"tango/internal/container"
	"tango/internal/device"
	"tango/internal/resil"
	"tango/internal/sim"
	"tango/internal/trace"
)

const (
	// tickInterval is the tick period in virtual seconds: four decision
	// points per default 60 s analytics step.
	tickInterval = 15.0
	// lowWaterFrac gates staging to predicted quiet windows: forecast
	// bandwidth at least this fraction of the model's peak.
	lowWaterFrac = 0.75
	// pauseFrac is the fraction of the forecast the observed bandwidth
	// must reach for the quiet window to be trusted (see paused).
	pauseFrac = 0.9
	// bpsLimit caps the background flow's read and write byte rate;
	// with the floor-pinned weight it keeps prefetch off the foreground.
	bpsLimit = 32 * device.MB
)

// PrefetchStats counts the prefetcher's decisions.
type PrefetchStats struct {
	Ticks         int // wakeups considered
	NotReady      int // skipped: estimator has no fitted model yet
	Paused        int // skipped: observed bandwidth below pauseFrac × forecast
	Busy          int // skipped: forecast below lowWaterFrac × model peak
	Runs          int // ticks that staged at least one chunk
	Aborted       int // staging runs cut short by a mid-run pause
	WeightRetries int // floor-weight writes rejected by an injected fault
	WeightSkips   int // floor-weight writes suppressed by an open resil breaker
}

// Prefetcher drives the cache from inside the simulation: it wakes every
// tickInterval, re-asserts its background cgroup's floor weight and
// byte-rate caps (cross-layer: the prefetch flow must never steal
// bandwidth from foreground analytics), and stages upcoming augmentation
// only during predicted low-interference windows. The decision inputs
// are injected as closures so the package stays independent of the
// controller.
type Prefetcher struct {
	// Forecast returns the next-step capacity-tier bandwidth forecast,
	// the fitted model's peak, and whether a model is ready.
	Forecast func() (next, peak float64, ok bool)
	// Observed returns the most recent measured capacity-tier bandwidth
	// (0 when nothing has been measured yet).
	Observed func() float64
	// Target returns the global cursor to stage up to (the controller's
	// planned cursors over the lookahead horizon).
	Target func() int
	// Done reports that the owning session has exited; the prefetcher
	// stops at the next tick.
	Done func() bool
	// Resil, when non-nil, routes the heal loop's floor-weight writes
	// through the prefetch.weight.floor policy (breaker-gated per
	// cgroup: a wedged controller file is probed on the breaker's
	// schedule instead of hammered every tick) and the staging reads
	// through prefetch.stage (deadlined and budgeted). Set before Run.
	Resil *resil.Controller

	cache *Cache
	stats PrefetchStats
}

// NewPrefetcher builds a prefetcher over the cache.
func NewPrefetcher(c *Cache) *Prefetcher {
	return &Prefetcher{cache: c}
}

// Stats returns a snapshot of the decision counters.
func (pf *Prefetcher) Stats() PrefetchStats { return pf.stats }

// paused reports whether observed bandwidth has fallen below the trusted
// fraction of the forecast — the quiet window the model promised is not
// materializing, so staging must stop.
func (pf *Prefetcher) paused(forecast float64) bool {
	if pf.Observed == nil {
		return false
	}
	obs := pf.Observed()
	return obs > 0 && forecast > 0 && obs < pauseFrac*forecast
}

// Run is the container body of the background prefetch process. It
// returns (ending the container) once Done reports the session exited.
func (pf *Prefetcher) Run(c *container.Container, p *sim.Proc) {
	cg := c.Cgroup()
	pf.cache.SetResil(pf.Resil)
	for {
		p.Sleep(tickInterval)
		if pf.Done != nil && pf.Done() {
			return
		}
		pf.stats.Ticks++
		// Re-assert the floor weight and throttles every tick: an
		// injected weight-write fault may have swallowed an earlier
		// write, and a throttle-reset fault may have cleared the caps.
		// MinWeight pins the flow to the smallest proportional share the
		// controller can grant, so foreground weight boosts always win.
		// Through the control plane the write is breaker-gated: a wedged
		// cgroup is probed on the breaker's half-open schedule instead
		// of re-asserted blindly every tick.
		switch res := pf.Resil.Key(resil.KeyPrefetchWeightFloor).Weight(cg, blkio.MinWeight); {
		case res.Skipped:
			pf.stats.WeightSkips++
		case !res.OK:
			pf.stats.WeightRetries++
		}
		cg.SetReadBpsLimit(bpsLimit)
		cg.SetWriteBpsLimit(bpsLimit)
		if pf.Forecast == nil || pf.Target == nil {
			pf.stats.NotReady++
			continue
		}
		next, peak, ok := pf.Forecast()
		if !ok {
			pf.stats.NotReady++
			continue
		}
		if pf.paused(next) {
			pf.stats.Paused++
			pf.cache.emit(trace.KindPrefetch, "paused: observed %.0f B/s below %.0f%% of forecast %.0f B/s",
				pf.Observed(), pauseFrac*100, next)
			continue
		}
		if next < lowWaterFrac*peak {
			pf.stats.Busy++
			continue // not a quiet window: stay off the device
		}
		staged, aborted := pf.cache.PrefetchTo(p, cg, pf.Target(), func() bool { return !pf.paused(next) })
		if aborted {
			pf.stats.Aborted++
		}
		if staged > 0 {
			pf.stats.Runs++
			pf.cache.emit(trace.KindPrefetch, "staged %.0f B (cache %.0f/%.0f B, %d entries)",
				staged, pf.cache.Used(), pf.cache.Capacity(), pf.cache.CachedEntries())
		}
	}
}
