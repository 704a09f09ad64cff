// Package coordinator arbitrates blkio weights between multiple Tango
// sessions on one node. Each session's weight function produces a
// *desired* weight on the absolute [100,1000] scale; when several
// sessions are retrieving simultaneously their independent requests can
// saturate the top of the range (losing the priority differentiation the
// weight encodes) or sit far below it (wasting share against the
// interfering containers). The allocator rescales the desired weights of
// all concurrently active sessions so that the largest maps to MaxWeight
// while mutual ratios — and hence priority differentiation — are
// preserved exactly.
//
// The rescale is incremental: the allocator maintains a count of active
// sessions per desired weight, so the scale (the max active desired) is
// known without a sweep, and a Request/Release that does not move the
// scale touches only the one session whose grant changed. The full
// sweep runs only when the scale itself moves or a faulted weight write
// is waiting to be re-applied. Grants land through a reusable scratch
// slice — the steady-state hot path performs no allocation.
//
// This is an extension beyond the paper, which evaluates one analytics
// container per node but motivates the multi-analytics scenario.
package coordinator

import (
	"fmt"

	"tango/internal/blkio"
	"tango/internal/resil"
	"tango/internal/slab"
	"tango/internal/trace"
)

// Allocator coordinates the weights of registered sessions. It has no
// lock: like the rest of a node's state it is touched only from its
// engine's goroutine, or from a fleet barrier while that engine is idle.
type Allocator struct {
	list    []*entry // insertion order: keeps rebalancing deterministic
	entries map[string]*entry
	rec     *trace.Recorder
	now     func() float64
	kApply  *resil.Key // coord.weight.apply; nil = legacy path

	active      int                        // sessions between Request and Release
	pendingAct  int                        // active entries with a failed write to retry
	desireCount [blkio.MaxWeight + 1]int32 // active sessions per desired weight
	maxDesired  int                        // largest active desired (the scale)
	lastMax     int                        // scale the current grants were computed at
	targets     []target                   // reusable write scratch
	slab        slab.Chunks[entry]         // where Attach's entries live
}

type entry struct {
	name    string
	cg      *blkio.Cgroup
	desired int
	grant   int // the weight last successfully written by the allocator
	active  bool
	pending bool // last weight write failed; force a re-apply next time
}

type target struct {
	e       *entry
	w       int
	pending bool
}

// New returns an empty allocator.
func New() *Allocator {
	return &Allocator{entries: map[string]*entry{}}
}

// Attach registers a session's cgroup. It fails on duplicate names.
func (a *Allocator) Attach(name string, cg *blkio.Cgroup) error {
	if _, ok := a.entries[name]; ok {
		return fmt.Errorf("coordinator: session %q already attached", name)
	}
	e := a.slab.Next()
	*e = entry{name: name, cg: cg, grant: cg.Weight()}
	a.entries[name] = e
	a.list = append(a.list, e)
	return nil
}

// SetTrace routes the allocator's recovery events (tolerated and
// re-applied weight writes) to rec, timestamped via now (typically the
// node engine's Now). Either may be nil.
func (a *Allocator) SetTrace(rec *trace.Recorder, now func() float64) {
	a.rec, a.now = rec, now
}

// SetResil routes the allocator's weight writes through the
// coord.weight.apply policy: breaker-gated per cgroup, so a wedged
// weight file is probed on the breaker's half-open schedule instead of
// re-written on every rebalance. An allocator it was never called on
// keeps the ad-hoc tolerate-and-retry path.
func (a *Allocator) SetResil(rc *resil.Controller) {
	a.kApply = rc.Key(resil.KeyCoordWeightApply)
}

// setWeight performs one weight write through the resil key when one is
// attached (breaker-gated, self-tracing) or directly otherwise. It
// reports whether the write landed; skipped (breaker-suppressed) and
// failed writes both leave the entry pending.
func (a *Allocator) setWeight(cg *blkio.Cgroup, w int) bool {
	if a.kApply != nil {
		return a.kApply.Weight(cg, w).OK
	}
	return cg.TrySetWeight(w) == nil
}

func (a *Allocator) emit(format string, args ...any) {
	t := 0.0
	if a.now != nil {
		t = a.now()
	}
	a.rec.Emit(t, "allocator", trace.KindRecover, format, args...)
}

// setPending flips the entry's pending flag, keeping the count of active
// pending entries (the sweep trigger) in step.
//
//tango:hotpath
func (a *Allocator) setPending(e *entry, v bool) {
	if e.pending == v {
		return
	}
	e.pending = v
	if e.active {
		if v {
			a.pendingAct++
		} else {
			a.pendingAct--
		}
	}
}

// countAdd registers an active desired weight in the scale index.
//
//tango:hotpath
func (a *Allocator) countAdd(d int) {
	a.desireCount[d]++
	if d > a.maxDesired {
		a.maxDesired = d
	}
}

// countRemove drops an active desired weight from the scale index. The
// downward rescan is bounded by the weight range, not the session count.
//
//tango:hotpath
func (a *Allocator) countRemove(d int) {
	a.desireCount[d]--
	if d != a.maxDesired || a.desireCount[d] > 0 {
		return
	}
	m := a.maxDesired
	for m >= blkio.MinWeight && a.desireCount[m] == 0 {
		m--
	}
	if m < blkio.MinWeight {
		m = 0
	}
	a.maxDesired = m
}

// deactivate takes an active entry out of the scale index and the
// active counts.
func (a *Allocator) deactivate(e *entry) {
	a.countRemove(e.desired)
	a.active--
	if e.pending {
		a.pendingAct--
	}
	e.active = false
}

// rebalance queues the weight writes this operation requires into the
// targets scratch (in attach order, like the full-sweep original). If the
// scale is unchanged and no faulted write awaits retry, only the touched
// entry is considered — O(1); the sweep runs only when the scale moved
// (every active grant changes) or a pending write must be retried.
// Inactive entries are never queued.
//
//tango:hotpath
func (a *Allocator) rebalance(touched *entry) {
	a.targets = a.targets[:0]
	max := a.maxDesired
	scaleMoved := max != a.lastMax
	a.lastMax = max
	if max == 0 {
		return
	}
	if !scaleMoved && a.pendingAct == 0 {
		if touched == nil || !touched.active {
			return
		}
		g := a.grant(touched)
		if g != touched.grant || touched.pending {
			a.targets = append(a.targets, target{touched, g, touched.pending})
		}
		return
	}
	for _, e := range a.list {
		if !e.active {
			continue
		}
		g := a.grant(e)
		if g != e.grant || e.pending {
			a.targets = append(a.targets, target{e, g, e.pending})
		}
	}
}

// grant is the rescaled weight the entry holds at the current scale.
//
//tango:hotpath
func (a *Allocator) grant(e *entry) int {
	return blkio.ClampWeight(e.desired * blkio.MaxWeight / a.maxDesired)
}

// Request declares that the named session wants the given desired weight
// for its current retrieval, and rebalances every active session whose
// grant that moves. It returns the granted weight.
func (a *Allocator) Request(name string, desired int) (int, error) {
	e, ok := a.entries[name]
	if !ok {
		return 0, fmt.Errorf("coordinator: session %q not attached", name)
	}
	if e.active {
		a.countRemove(e.desired)
	} else {
		a.active++
		if e.pending {
			a.pendingAct++
		}
	}
	e.desired = blkio.ClampWeight(desired)
	e.active = true
	a.countAdd(e.desired)
	a.rebalance(e)
	granted := a.grant(e)
	a.apply()
	return granted, nil
}

// Release marks the session's retrieval finished: its weight reverts to
// the default and the remaining active sessions rebalance.
func (a *Allocator) Release(name string) {
	e, ok := a.entries[name]
	if ok && e.active {
		a.deactivate(e)
	}
	a.rebalance(nil)
	if ok {
		a.revert(e, true)
	}
	a.apply()
}

// Detach removes a session: its weight reverts to the default and the
// remaining active sessions rebalance (without this, the largest
// departing desired weight would keep the survivors' grants scaled down
// against interferers until their next Request).
func (a *Allocator) Detach(name string) {
	e, ok := a.entries[name]
	if ok {
		delete(a.entries, name)
		for i, x := range a.list {
			if x == e {
				a.list = append(a.list[:i], a.list[i+1:]...)
				break
			}
		}
		if e.active {
			a.deactivate(e)
		}
	}
	a.rebalance(nil)
	if ok {
		a.revert(e, false)
	}
	a.apply()
}

// revert returns a departing or released session's cgroup to the
// default weight, tolerating injected weight-write faults: the failure
// is recorded and, for a released session, the entry is left pending.
// Nothing re-applies it while the session stays idle, since rebalance
// queues only active entries: the cgroup keeps its stale weight until
// the session's own next Request or Release.
func (a *Allocator) revert(e *entry, attached bool) {
	landed := a.setWeight(e.cg, blkio.DefaultWeight)
	if attached {
		if landed {
			e.grant = blkio.DefaultWeight
		}
		a.setPending(e, !landed)
	}
	if !landed && a.kApply == nil {
		a.emit("weight revert failed for %s: tolerated, cgroup keeps w=%d", e.name, e.cg.Weight())
	}
}

// apply pushes the queued grants to the cgroups. Failed writes (injected
// weight faults) are tolerated and recorded: the entry is marked pending,
// so while it stays active every subsequent rebalance retries the write
// until it lands, at which point the re-apply is recorded as the
// recovery.
func (a *Allocator) apply() {
	for i := range a.targets {
		t := &a.targets[i]
		if t.e.cg.Weight() == t.w && !t.pending {
			continue
		}
		landed := a.setWeight(t.e.cg, t.w)
		if landed {
			t.e.grant = t.w
		}
		a.setPending(t.e, !landed)
		if a.kApply == nil {
			if !landed {
				a.emit("weight write failed for %s (w=%d): will re-apply", t.e.name, t.w)
			} else if t.pending {
				a.emit("weight write recovered for %s: re-applied w=%d", t.e.name, t.w)
			}
		}
	}
	a.targets = a.targets[:0]
}

// Active reports how many sessions are currently retrieving. The count
// is maintained incrementally; no sweep.
func (a *Allocator) Active() int { return a.active }
