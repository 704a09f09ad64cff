// Package trace records structured events from a simulation run — weight
// adjustments, bucket retrievals, estimator refits — for debugging and
// for experiments that plot controller behavior over time (e.g. Fig 15).
// A Recorder is a bounded ring buffer: cheap enough to leave enabled, and
// safe for the concurrent multi-node runs of the weak-scaling experiment.
package trace

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"
)

// Event kinds emitted by the controller, the coordinator, and the fault
// injector. Call sites use these constants (not string literals) so
// filters and event consumers cannot drift from the emitters.
const (
	KindStep    = "step"    // one analysis step completed (core)
	KindWeight  = "weight"  // a blkio weight applied for a bucket (core)
	KindBucket  = "bucket"  // one augmentation bucket retrieved (core)
	KindRefit   = "refit"   // estimator refit: periodic or regime-triggered (core)
	KindFault   = "fault"   // a fault injected or cleared (internal/fault)
	KindRecover = "recover" // a recovery action: retry, degrade, weight re-apply

	// Fast-tier cache / prefetcher events (internal/cache).
	KindCacheHit   = "cache-hit"   // a read served (partly) from the fast-tier cache
	KindCacheMiss  = "cache-miss"  // a read that went to the home tier
	KindCacheEvict = "cache-evict" // cache blocks evicted to make room or shrink
	KindPrefetch   = "prefetch"    // background pre-staging: staged, paused, or skipped

	// Resilience control plane events (internal/resil). Every recovery
	// decision is on the timeline: which attempt, under which policy key,
	// and why it was retried, denied, hedged, or degraded.
	KindAttempt = "attempt" // a policy-keyed attempt failed, was retried, or degraded
	KindBreaker = "breaker" // a circuit breaker opened, half-opened, or closed
	KindHedge   = "hedge"   // a hedged read launched or resolved (winner + loser)
	KindBudget  = "budget"  // the retry budget denied or paced an attempt

	// Fleet-scale cluster events (internal/fleet + internal/objstore).
	KindPlace   = "place"   // a session placed on a node by the cluster coordinator
	KindMigrate = "migrate" // a session drained/restored through the object store
	KindEgress  = "egress"  // the shared-egress water-filling regranted node shares

	// Decentralized token-control events (internal/tokenctl).
	KindBorrow = "borrow" // a session borrowed or recalled weight points from a peer bucket
	KindRepay  = "repay"  // a borrow ledger debt cleared (refill-paced) or epoch-forgiven
)

// maxArgs is how many arguments one event keeps.
const maxArgs = 6

// Event is one recorded occurrence at virtual time T.
type Event struct {
	T      float64
	Source string // e.g. the session or device name
	Kind   string // one of the Kind* constants
	Format string // the Emit format; Msg applies it to the arguments

	// The arguments by value: a tag per slot ('i' int, 'f' float64, 's'
	// string, 'b' bool, 0 past the last), numbers as bits in nums.
	tags [maxArgs]byte
	nums [maxArgs]uint64
	strs [maxArgs]string
}

// Msg formats the event: fmt.Sprintf(Format, args...) over the arguments
// Emit stored, or Format verbatim for an event emitted without any.
func (ev Event) Msg() string {
	var args [maxArgs]any
	n := 0
	for ; n < maxArgs && ev.tags[n] != 0; n++ {
		switch v := ev.nums[n]; ev.tags[n] {
		case 'i':
			args[n] = int(v)
		case 'f':
			args[n] = math.Float64frombits(v)
		case 's':
			args[n] = ev.strs[n]
		default:
			args[n] = v != 0
		}
	}
	if n == 0 {
		return ev.Format
	}
	return fmt.Sprintf(ev.Format, args[:n]...)
}

// Recorder is a bounded event buffer. The zero value is inert (Disabled):
// like a nil recorder it drops events and subscriptions; construct with New.
type Recorder struct {
	mu     sync.Mutex
	events []Event       // guarded by mu
	next   int           // guarded by mu
	filled bool          // guarded by mu
	cap    int           // immutable after construction
	subs   []func(Event) // guarded by mu; snapshot before invoking outside the lock
}

// New creates a recorder retaining the most recent max events (max <= 0
// defaults to 4096).
func New(max int) *Recorder {
	if max <= 0 {
		max = 4096
	}
	return &Recorder{cap: max}
}

// Subscribe registers fn to be invoked synchronously on every event.
func (r *Recorder) Subscribe(fn func(Event)) {
	if r == nil || r.cap == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.subs = append(r.subs, fn)
}

// Emit records an event. A nil (or zero-value) recorder ignores it. Up to
// six arguments are copied by value and formatted only when the event is
// read, so a call site needs no guard: its arguments stay on its stack.
// Each must be an int, float64, string or bool; anything else panics, and
// tangolint's hotpath analyzer reports it at hot call sites.
//
//tango:hotpath
func (r *Recorder) Emit(t float64, source, kind, format string, args ...any) {
	if r == nil || r.cap == 0 {
		return
	}
	ev := Event{T: t, Source: source, Kind: kind, Format: format}
	for i, a := range args {
		switch v := a.(type) {
		case int:
			ev.tags[i], ev.nums[i] = 'i', uint64(v)
		case float64:
			ev.tags[i], ev.nums[i] = 'f', math.Float64bits(v)
		case string:
			ev.tags[i], ev.strs[i] = 's', v
		case bool:
			ev.tags[i] = 'b'
			if v {
				ev.nums[i] = 1
			}
		default:
			panic("trace: unsupported Emit argument type " + reflect.TypeOf(a).String())
		}
	}
	r.mu.Lock()
	if len(r.events) < r.cap {
		r.events = append(r.events, ev) // the ring grows as it fills
	} else {
		r.events[r.next] = ev
		r.next = (r.next + 1) % r.cap
		r.filled = true
	}
	subs := r.subs
	r.mu.Unlock()
	for _, fn := range subs {
		fn(ev)
	}
}

// Events returns the retained events in chronological order.
func (r *Recorder) Events() []Event {
	if r == nil || r.cap == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.filled {
		out := make([]Event, len(r.events))
		copy(out, r.events)
		return out
	}
	out := make([]Event, 0, r.cap)
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// Filter returns retained events of one kind.
func (r *Recorder) Filter(kind string) []Event {
	var out []Event
	for _, ev := range r.Events() {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// Len reports the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.filled {
		return r.cap
	}
	return len(r.events)
}

// WriteTo dumps the retained events as text lines.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, ev := range r.Events() {
		n, err := fmt.Fprintf(w, "%10.3f %-12s %-8s %s\n", ev.T, ev.Source, ev.Kind, ev.Msg())
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
