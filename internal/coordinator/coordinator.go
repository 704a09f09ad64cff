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
	"sync"

	"tango/internal/blkio"
	"tango/internal/resil"
	"tango/internal/slab"
	"tango/internal/trace"
)

// Allocator coordinates the weights of registered sessions. It is safe
// for use from a single simulation engine (its mutexes additionally
// allow multi-engine tests to share one instance, though that is not
// the intended deployment). Lock order: applyMu, then mu. applyMu
// serializes whole operations so the grant scratch can be reused;
// weight writes happen with mu released (they notify device
// subscribers).
type Allocator struct {
	applyMu sync.Mutex // serializes Request/Release/Detach end to end
	mu      sync.Mutex
	list    []*entry          // guarded by mu (insertion order: keeps rebalancing deterministic)
	entries map[string]*entry // guarded by mu
	rec     *trace.Recorder   // guarded by mu
	now     func() float64    // guarded by mu
	kApply  *resil.Key        // guarded by mu (coord.weight.apply; nil = legacy path)

	active      int                        // guarded by mu: sessions between Request and Release
	pendingAct  int                        // guarded by mu: active entries with a failed write to retry
	desireCount [blkio.MaxWeight + 1]int32 // guarded by mu: active sessions per desired weight
	maxDesired  int                        // guarded by mu: largest active desired (the scale)
	lastMax     int                        // guarded by mu: scale the current grants were computed at
	targets     []target                   // guarded by applyMu: reusable write scratch
	slab        slab.Chunks[entry]         // guarded by mu: where Attach's entries live
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
	a.mu.Lock()
	defer a.mu.Unlock()
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
	a.mu.Lock()
	a.rec = rec
	a.now = now
	a.mu.Unlock()
}

// SetResil routes the allocator's weight writes through the
// coord.weight.apply policy: breaker-gated per cgroup, so a wedged
// weight file is probed on the breaker's half-open schedule instead of
// re-written on every rebalance. An allocator it was never called on
// keeps the ad-hoc tolerate-and-retry path.
func (a *Allocator) SetResil(rc *resil.Controller) {
	a.mu.Lock()
	a.kApply = rc.Key(resil.KeyCoordWeightApply)
	a.mu.Unlock()
}

// setWeight performs one weight write through the resil key when one is
// attached (breaker-gated, self-tracing) or directly otherwise. It
// reports whether the write landed; skipped (breaker-suppressed) and
// failed writes both leave the entry pending for the next rebalance.
func (a *Allocator) setWeight(cg *blkio.Cgroup, w int) bool {
	a.mu.Lock()
	k := a.kApply
	a.mu.Unlock()
	if k != nil {
		return k.Weight(cg, w).OK
	}
	return cg.TrySetWeight(w) == nil
}

func (a *Allocator) emit(format string, args ...any) {
	a.mu.Lock()
	rec, now := a.rec, a.now
	a.mu.Unlock()
	t := 0.0
	if now != nil {
		t = now()
	}
	rec.Emit(t, "allocator", trace.KindRecover, format, args...)
}

// setPendingLocked flips the entry's pending flag, keeping the count of
// active pending entries (the sweep trigger) in step.
//
//tango:hotpath
func (a *Allocator) setPendingLocked(e *entry, v bool) {
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

// countAddLocked registers an active desired weight in the scale index.
//
//tango:hotpath
func (a *Allocator) countAddLocked(d int) {
	a.desireCount[d]++
	if d > a.maxDesired {
		a.maxDesired = d
	}
}

// countRemoveLocked drops an active desired weight from the scale
// index. The downward rescan is bounded by the weight range, not the
// session count.
//
//tango:hotpath
func (a *Allocator) countRemoveLocked(d int) {
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

// rebalanceLocked queues the weight writes this operation requires into
// the targets scratch (in attach order, like the full-sweep original).
// If the scale is unchanged and no faulted write awaits retry, only the
// touched entry is considered — O(1); the sweep runs only when the
// scale moved (every active grant changes) or a pending write must be
// retried.
//
//tango:hotpath
func (a *Allocator) rebalanceLocked(touched *entry) {
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
		g := blkio.ClampWeight(touched.desired * blkio.MaxWeight / max)
		if g != touched.grant || touched.pending {
			a.targets = append(a.targets, target{touched, g, touched.pending})
		}
		return
	}
	for _, e := range a.list {
		if !e.active {
			continue
		}
		g := blkio.ClampWeight(e.desired * blkio.MaxWeight / max)
		if g != e.grant || e.pending {
			a.targets = append(a.targets, target{e, g, e.pending})
		}
	}
}

// grantLocked is the rescaled weight the entry holds at the current
// scale.
//
//tango:hotpath
func (a *Allocator) grantLocked(e *entry) int {
	return blkio.ClampWeight(e.desired * blkio.MaxWeight / a.maxDesired)
}

// Request declares that the named session wants the given desired weight
// for its current retrieval, and rebalances every active session whose
// grant that moves. It returns the granted weight.
func (a *Allocator) Request(name string, desired int) (int, error) {
	a.applyMu.Lock()
	defer a.applyMu.Unlock()
	a.mu.Lock()
	e, ok := a.entries[name]
	if !ok {
		a.mu.Unlock()
		return 0, fmt.Errorf("coordinator: session %q not attached", name)
	}
	if e.active {
		a.countRemoveLocked(e.desired)
	} else {
		a.active++
		if e.pending {
			a.pendingAct++
		}
	}
	e.desired = blkio.ClampWeight(desired)
	e.active = true
	a.countAddLocked(e.desired)
	a.rebalanceLocked(e)
	granted := a.grantLocked(e)
	a.mu.Unlock()
	a.applyLocked()
	return granted, nil
}

// Release marks the session's retrieval finished: its weight reverts to
// the default and the remaining active sessions rebalance.
func (a *Allocator) Release(name string) {
	a.applyMu.Lock()
	defer a.applyMu.Unlock()
	a.mu.Lock()
	e, ok := a.entries[name]
	if ok && e.active {
		a.countRemoveLocked(e.desired)
		a.active--
		if e.pending {
			a.pendingAct--
		}
		e.active = false
	}
	a.rebalanceLocked(nil)
	a.mu.Unlock()
	if ok {
		a.revert(e, true)
	}
	a.applyLocked()
}

// Detach removes a session: its weight reverts to the default and the
// remaining active sessions rebalance (without this, the largest
// departing desired weight would keep the survivors' grants scaled down
// against interferers until their next Request).
func (a *Allocator) Detach(name string) {
	a.applyMu.Lock()
	defer a.applyMu.Unlock()
	a.mu.Lock()
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
			a.countRemoveLocked(e.desired)
			a.active--
			if e.pending {
				a.pendingAct--
			}
			e.active = false
		}
	}
	a.rebalanceLocked(nil)
	a.mu.Unlock()
	if ok {
		a.revert(e, false)
	}
	a.applyLocked()
}

// revert returns a departing or released session's cgroup to the
// default weight, tolerating injected weight-write faults: the failure
// is recorded and, while the session stays attached, the next rebalance
// re-applies.
func (a *Allocator) revert(e *entry, attached bool) {
	landed := a.setWeight(e.cg, blkio.DefaultWeight)
	a.mu.Lock()
	legacy := a.kApply == nil
	if attached {
		if landed {
			e.grant = blkio.DefaultWeight
		}
		a.setPendingLocked(e, !landed)
	}
	a.mu.Unlock()
	if !landed && legacy {
		a.emit("weight revert failed for %s: tolerated, cgroup keeps w=%d", e.name, e.cg.Weight())
	}
}

// applyLocked pushes the queued grants to the cgroups outside the state lock
// (weight writes notify device subscribers). Failed writes (injected
// weight faults) are tolerated and recorded: the entry is marked
// pending so the write is retried on every subsequent rebalance until
// it lands, at which point the re-apply is recorded as the recovery.
// The caller holds applyMu, which owns the targets scratch.
func (a *Allocator) applyLocked() {
	for i := range a.targets {
		t := &a.targets[i]
		if t.e.cg.Weight() == t.w && !t.pending {
			continue
		}
		landed := a.setWeight(t.e.cg, t.w)
		a.mu.Lock()
		legacy := a.kApply == nil
		if landed {
			t.e.grant = t.w
		}
		a.setPendingLocked(t.e, !landed)
		a.mu.Unlock()
		if legacy {
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
func (a *Allocator) Active() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.active
}
