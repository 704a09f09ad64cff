package sim

import (
	"math"
	"slices"

	"tango/internal/slab"
)

// Engine is a discrete-event scheduler over a virtual clock measured in
// seconds. The zero value is not usable; construct with NewEngine.
//
// Engine methods must only be called from the goroutine that owns the
// engine (the one calling Run) or from within a simulated process or event
// callback; the engine is not safe for concurrent use from unrelated
// goroutines. Independent engines are fully isolated and may run on
// separate goroutines in parallel (this is how multi-node weak scaling is
// simulated).
type Engine struct {
	now    float64
	seq    int64
	events eventHeap
	free   []*event // recycled event structs; bounds steady-state allocation
	procs  []*Proc  // live (not yet finished) processes; Proc.slot indexes it
	err    error

	evSlab slab.Chunks[event] // where a freelist miss takes its struct from
}

// NewEngine returns an engine with the clock at t=0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// recycle returns a drained event to the freelist. The callback reference
// is dropped so the freelist does not pin closures.
func (e *Engine) recycle(ev *event) {
	ev.cb = nil
	e.free = append(e.free, ev)
}

// Callback is an event body: the engine calls Fire when the event is due.
// A hot path that would otherwise build a fresh closure per scheduling (to
// carry per-object state into the event) implements Fire on the state
// object itself and passes its pointer — boxing a pointer into the
// interface does not allocate. See Device's flow-issue events.
type Callback interface {
	Fire()
}

// funcCall is a func as a Callback. A func value is one pointer, so At
// boxes it without allocating.
type funcCall func()

func (f funcCall) Fire() { f() }

// At schedules fn to run at virtual time t: AtCall with fn as the body.
//
//tango:hotpath
func (e *Engine) At(t float64, fn func()) Timer { return e.AtCall(t, funcCall(fn)) }

// AtCall schedules cb.Fire to run at virtual time t. Times in the past are
// clamped to the present (the event still fires, after already-scheduled
// events at the current instant). Returns a handle that can cancel the
// event. The event takes the next sequence number: seq is monotone and
// never reused, so a Timer holding a stale pointer can always detect that
// its event is gone.
//
//tango:hotpath
func (e *Engine) AtCall(t float64, cb Callback) Timer {
	ev := e.push(e.clamp(t), e.seq, cb)
	e.seq++
	return Timer{ev: ev, seq: ev.seq}
}

// clamp is t as the queue takes it: a past time is the present.
func (e *Engine) clamp(t float64) float64 {
	if t < e.now {
		t = e.now
	}
	if math.IsNaN(t) {
		panic("sim: event scheduled at NaN time")
	}
	return t
}

// push queues an event under the key (t, seq), its struct taken off the
// freelist or from the next slot of a chunk.
//
//tango:hotpath
func (e *Engine) push(t float64, seq int64, cb Callback) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = e.evSlab.Next()
	}
	ev.t, ev.seq, ev.cb = t, seq, cb
	e.events.push(ev)
	return ev
}

// Calendar is a batch of callbacks that holds one event-queue slot at a
// time: Add takes the sequence number an AtCall would take but queues
// nothing, Arm sorts the batch by (time, seq) and queues its first item,
// and each item's event queues the next item before it fires its own. The
// queue's minimum is always the one AtCall per item would give, so the
// firing order, the clock and Scheduled are the same; Pending counts the
// batch as one. The items buffer is reused from batch to batch.
type Calendar struct {
	e     *Engine
	items []event
	next  int // the first item not yet fired
}

// Reset empties c for a new batch on e, with room for n items. It panics
// if an item of the last batch has not fired.
func (c *Calendar) Reset(e *Engine, n int) {
	if c.next < len(c.items) {
		panic("sim: Calendar reset with items pending")
	}
	c.e, c.items, c.next = e, slices.Grow(c.items[:0], n), 0
}

// Add puts cb at virtual time t, clamped as by AtCall, into the batch.
//
//tango:hotpath
func (c *Calendar) Add(t float64, cb Callback) {
	c.items = append(c.items, event{t: c.e.clamp(t), seq: c.e.seq, cb: cb})
	c.e.seq++
}

// Arm queues the batch, once all of it is added.
func (c *Calendar) Arm() {
	slices.SortFunc(c.items, func(a, b event) int { // seqs differ: no ties
		if a.t < b.t || a.t == b.t && a.seq < b.seq {
			return -1
		}
		return 1
	})
	c.queueNext()
}

// Fire is an item's event: it queues the next item, then fires its own.
//
//tango:hotpath
func (c *Calendar) Fire() {
	cb := c.items[c.next].cb
	c.next++
	c.queueNext()
	cb.Fire()
}

func (c *Calendar) queueNext() {
	if c.next < len(c.items) {
		it := &c.items[c.next]
		c.e.push(it.t, it.seq, c)
	}
}

// Timer is a handle to a scheduled event. Timers are small values; copy
// them freely. The zero Timer is valid and behaves as already expired.
type Timer struct {
	ev  *event
	seq int64
}

// Stop cancels the event if it has not fired. It reports whether the event
// was still pending. Cancellation is implemented by neutering the callback,
// so the heap entry drains harmlessly. Fired events are recycled; the
// sequence guard makes Stop on a stale handle a safe no-op even after the
// underlying struct has been reused for a later event.
//
//tango:hotpath
func (t Timer) Stop() bool {
	if t.ev == nil || t.ev.seq != t.seq || t.ev.cb == nil {
		return false
	}
	t.ev.cb = nil
	return true
}

// Run processes events in order until the clock would pass `until`, then
// sets the clock to `until` and returns. Events scheduled exactly at
// `until` do fire. Returns the first process error, if any.
//
//tango:hotpath
func (e *Engine) Run(until float64) error {
	e.dispatch(until)
	if e.err == nil && e.now < until {
		e.now = until
	}
	return e.err
}

// RunAll processes events until no events remain (every process has
// finished or is parked indefinitely). Returns the first process error.
//
//tango:hotpath
func (e *Engine) RunAll() error {
	e.dispatch(math.Inf(1))
	return e.err
}

// dispatch fires the events due at or before until, in order, until a
// process fails. It is the simulator's innermost loop (BenchmarkEngine*);
// tangolint's hotpath analyzer verifies it and everything it reaches
// stay free of per-event allocation.
//
//tango:hotpath
func (e *Engine) dispatch(until float64) {
	for len(e.events) > 0 && e.err == nil && e.events[0].t <= until {
		ev := e.events.pop()
		t, cb := ev.t, ev.cb
		e.recycle(ev) // before firing: the callback may reschedule and reuse it
		// Only a live event moves the clock: one neutered by Stop just drains.
		if cb != nil {
			e.now = t
			cb.Fire()
		}
	}
}

// Pending reports the number of scheduled (possibly cancelled) events.
func (e *Engine) Pending() int { return len(e.events) }

// Scheduled reports how many events have been armed since the engine was
// made: two runs that took the same hops read the same count.
func (e *Engine) Scheduled() int64 { return e.seq }

// LiveProcs reports the number of spawned processes that have not finished.
func (e *Engine) LiveProcs() int { return len(e.procs) }

func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}
