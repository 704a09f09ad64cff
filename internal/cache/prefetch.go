package cache

import (
	"tango/internal/blkio"
	"tango/internal/container"
	"tango/internal/device"
	"tango/internal/resil"
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

// Inputs is what a prefetcher reads from the controller that owns it, so
// the package stays independent of the controller.
type Inputs interface {
	// Forecast returns the next-step capacity-tier bandwidth forecast,
	// the fitted model's peak, and whether a model is ready.
	Forecast() (next, peak float64, ok bool)
	// Observed returns the most recent measured capacity-tier bandwidth
	// (0 when nothing has been measured yet).
	Observed() float64
	// Target returns the global cursor to stage up to (the controller's
	// planned cursors over the lookahead horizon).
	Target() int
	// Done reports that the owning session has exited; the prefetcher
	// stops at the next tick.
	Done() bool
}

// Prefetcher drives the cache from inside the simulation: it wakes every
// tickInterval, re-asserts its background cgroup's floor weight and
// byte-rate caps (cross-layer: the prefetch flow must never steal
// bandwidth from foreground analytics), and stages upcoming augmentation
// only during predicted low-interference windows.
//
// A tick is an engine callback. A tick that stages starts a staging run
// inside its event — a chain of transfers that report to it — and the
// run arms the next tick when it ends; every other tick arms the next one
// itself, after its weight and throttle writes. Each event is where the
// prefetch process that ran the same loop armed one.
type Prefetcher struct {
	// Resil routes the heal loop's floor-weight writes and the staging
	// reads through its prefetch.weight.floor and prefetch.stage keys:
	// under resil.New breaker-gated per cgroup (a wedged controller file
	// is probed on the breaker's schedule, not hammered every tick) and
	// deadlined and budgeted; under the adhoc catalog one traced write
	// and plain reads. Set before the engine runs the launch.
	Resil *resil.Controller

	in       Inputs
	cache    *Cache
	cont     *container.Container
	run      stageRun
	launched bool    // the launch hop is past: each Fire is a tick
	next     float64 // the forecast the staging run in flight was started on
	stats    PrefetchStats
}

// NewPrefetcher builds a prefetcher over the cache, reading in.
func NewPrefetcher(c *Cache, in Inputs) *Prefetcher {
	return &Prefetcher{cache: c, in: in}
}

// Stats returns a snapshot of the decision counters.
func (pf *Prefetcher) Stats() PrefetchStats { return pf.stats }

// paused reports whether observed bandwidth has fallen below the trusted
// fraction of the forecast — the quiet window the model promised is not
// materializing, so staging must stop.
func (pf *Prefetcher) paused(forecast float64) bool {
	obs := pf.in.Observed()
	return obs > 0 && forecast > 0 && obs < pauseFrac*forecast
}

// keepGoing polls the staging run in flight between chunks.
func (pf *Prefetcher) keepGoing() bool { return !pf.paused(pf.next) }

// Launch starts the prefetcher in c, its background container: a launch
// hop now, then a tick every tickInterval until the inputs report Done.
func (pf *Prefetcher) Launch(c *container.Container) {
	pf.cont = c
	eng := pf.cache.dev.Engine()
	eng.AtCall(eng.Now(), pf)
}

// Fire takes the launch hop, then runs a tick.
func (pf *Prefetcher) Fire() {
	if !pf.launched {
		pf.launched = true
		pf.cache.SetResil(pf.Resil)
		pf.sleep()
		return
	}
	if pf.in.Done() {
		return
	}
	if !pf.tick() {
		pf.sleep()
		return
	}
	// Stage up to the target while the quiet window holds.
	if !pf.run.start(pf.cache, pf.cont.Cgroup(), pf.in.Target(), pf) {
		pf.stageDone()
	}
}

// sleep arms the next tick.
func (pf *Prefetcher) sleep() {
	eng := pf.cache.dev.Engine()
	eng.AtCall(eng.Now()+tickInterval, pf)
}

// tick makes one tick's decisions and reports whether to stage.
func (pf *Prefetcher) tick() bool {
	cg := pf.cont.Cgroup()
	pf.stats.Ticks++
	// Re-assert the floor weight and throttles every tick: an injected
	// weight-write fault may have swallowed an earlier write, and a
	// throttle-reset fault may have cleared the caps. MinWeight pins the
	// flow to the smallest proportional share the controller can grant,
	// so foreground weight boosts always win. Through the control plane
	// the write is breaker-gated: a wedged cgroup is probed on the
	// breaker's half-open schedule instead of re-asserted blindly every
	// tick.
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
		return false
	}
	if pf.paused(next) {
		pf.stats.Paused++
		c := pf.cache
		c.cfg.Trace.Emit(c.dev.Engine().Now(), source, trace.KindPrefetch, "paused: observed %.0f B/s below %.0f%% of forecast %.0f B/s",
			pf.in.Observed(), pauseFrac*100, next)
		return false
	}
	if next < lowWaterFrac*peak {
		pf.stats.Busy++
		return false // not a quiet window: stay off the device
	}
	pf.next = next
	return true
}

// stageDone ends a staging run: its counts and trace, then the next tick.
func (pf *Prefetcher) stageDone() {
	c := pf.cache
	if pf.run.aborted {
		pf.stats.Aborted++
	}
	if staged := pf.run.staged; staged > 0 {
		pf.stats.Runs++
		c.cfg.Trace.Emit(c.dev.Engine().Now(), source, trace.KindPrefetch, "staged %.0f B (cache %.0f/%.0f B, %d entries)",
			staged, c.Used(), c.Capacity(), c.CachedEntries())
	}
	pf.sleep()
}
