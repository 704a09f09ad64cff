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
// The rescale is incremental: the allocator keeps the scale (the max
// active desired) and how many active sessions hold it, so a Request or
// Release that does not move the scale touches only the one session whose
// grant changed. The sessions are rescanned for the scale only when its
// last holder lowers, releases or detaches, and swept when it moves or a
// faulted weight write awaits re-applying. Grants land through a reusable
// scratch slice — the steady-state hot path performs no allocation.
//
// This is an extension beyond the paper, which evaluates one analytics
// container per node but motivates the multi-analytics scenario.
package coordinator

import (
	"fmt"
	"slices"

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
	rc      *resil.Controller // its coord.weight.apply key writes (nil: the direct write)

	active     int                // sessions between Request and Release
	pendingAct int                // active entries with a failed write to retry
	maxDesired int                // largest active desired (the scale); 0 with none active
	atMax      int                // active entries whose desired is maxDesired
	lastMax    int                // scale the current grants were computed at
	targets    []target           // reusable write scratch
	slab       slab.Chunks[entry] // where Attach's entries live
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

// New returns an empty allocator. Its map is made once, by Grow or the
// first Attach: a lookup on a nil map already works.
func New() *Allocator { return &Allocator{} }

// Attach registers a session's cgroup. A duplicate name fails: the insert
// hashes the name once, and a map whose length did not grow held it.
func (a *Allocator) Attach(name string, cg *blkio.Cgroup) error {
	e := a.slab.Next()
	*e = entry{name: name, cg: cg, grant: cg.Weight()}
	if a.entries == nil {
		a.entries = map[string]*entry{}
	}
	n := len(a.entries)
	if a.entries[name] = e; len(a.entries) == n {
		a.entries[name] = a.list[slices.IndexFunc(a.list, func(o *entry) bool { return o.name == name })]
		return fmt.Errorf("coordinator: session %q already attached", name)
	}
	a.list = append(a.list, e)
	return nil
}

// Grow makes room for n more attached sessions.
func (a *Allocator) Grow(n int) {
	if len(a.entries) == 0 {
		a.entries = make(map[string]*entry, n)
	}
	a.list = slices.Grow(a.list, n)
	a.slab.Grow(n)
}

// SetTrace does nothing: the allocator's weight writes are traced by the
// controller SetResil attaches. It stays for callers that still set a
// recorder.
func (a *Allocator) SetTrace(*trace.Recorder, func() float64) {}

// SetResil routes the allocator's weight writes through rc's
// coord.weight.apply key, which records a failed write: under the catalog
// of resil.New breaker-gated per cgroup, so a wedged weight file is probed
// on the breaker's half-open schedule instead of re-written on every
// rebalance; under the adhoc catalog one attempt per write. An allocator
// it was never called on writes directly, untraced.
func (a *Allocator) SetResil(rc *resil.Controller) { a.rc = rc }

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

// countAdd registers an active desired weight in the scale.
//
//tango:hotpath
func (a *Allocator) countAdd(d int) {
	switch {
	case d > a.maxDesired:
		a.maxDesired, a.atMax = d, 1
	case d == a.maxDesired:
		a.atMax++
	}
}

// countRemove drops an active desired weight from the scale, once its
// entry no longer holds it; the scale's last holder leaving rescans.
//
//tango:hotpath
func (a *Allocator) countRemove(d int) {
	if d == a.maxDesired {
		if a.atMax--; a.atMax == 0 {
			a.maxDesired = 0
			for _, e := range a.list {
				if e.active {
					a.countAdd(e.desired)
				}
			}
		}
	}
}

// deactivate takes an active entry out of the scale and active counts.
func (a *Allocator) deactivate(e *entry) {
	e.active = false
	a.countRemove(e.desired)
	a.active--
	if e.pending {
		a.pendingAct--
	}
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
	return a.request(e, desired), nil
}

// MustRequest is Request for a session known to be attached, and panics
// otherwise. It builds no error value, so an engine callback may call it.
func (a *Allocator) MustRequest(name string, desired int) int {
	e, ok := a.entries[name]
	if !ok {
		panic(fmt.Sprintf("coordinator: session %q not attached", name))
	}
	return a.request(e, desired)
}

func (a *Allocator) request(e *entry, desired int) int {
	old, d := e.desired, blkio.ClampWeight(desired)
	e.desired = d
	switch {
	case !e.active:
		e.active = true
		a.active++
		if e.pending {
			a.pendingAct++
		}
		a.countAdd(d)
	case d > old:
		a.countAdd(d) // the scale, if old held it, is d's alone
	case d < old:
		a.countRemove(old)
	}
	a.rebalance(e)
	granted := a.grant(e)
	a.apply()
	return granted
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
		i := slices.Index(a.list, e)
		a.list = slices.Delete(a.list, i, i+1)
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
// default weight, tolerating injected weight-write faults: for a released
// session, a failed write leaves the entry pending.
// Nothing re-applies it while the session stays idle, since rebalance
// queues only active entries: the cgroup keeps its stale weight until
// the session's own next Request or Release.
func (a *Allocator) revert(e *entry, attached bool) {
	landed := a.rc.Key(resil.KeyCoordWeightApply).Weight(e.cg, blkio.DefaultWeight).OK
	if attached {
		if landed {
			e.grant = blkio.DefaultWeight
		}
		a.setPending(e, !landed)
	}
}

// apply pushes the queued grants to the cgroups. Failed writes (injected
// weight faults) are tolerated: the entry is marked pending, so while it
// stays active every subsequent rebalance retries the write until it
// lands.
func (a *Allocator) apply() {
	for i := range a.targets {
		t := &a.targets[i]
		if t.e.cg.Weight() == t.w && !t.pending {
			continue
		}
		// Skipped (breaker-suppressed) and failed writes both leave the
		// entry pending.
		landed := a.rc.Key(resil.KeyCoordWeightApply).Weight(t.e.cg, t.w).OK
		if landed {
			t.e.grant = t.w
		}
		a.setPending(t.e, !landed)
	}
	a.targets = a.targets[:0]
}
