package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Proc is a simulated process: a coroutine that runs user code and
// switches back to the engine whenever it blocks on virtual time (Sleep)
// or on an external wake-up (Suspend). A Proc must only call its blocking
// methods from its own body function. Each process owns one coroutine
// (iter.Pull) from Spawn until its body ends: by returning, by a panic or
// by Kill.
//
// A Proc implements Callback: the event that resumes it is the proc
// itself, so arming a resume allocates nothing.
type Proc struct {
	eng  *Engine
	name string

	body  func(p *Proc) // nil once the body has ended
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	slot      int // index in eng.procs while live
	done      bool
	suspended bool
}

// procKilled is the panic a killed proc unwinds with, raised at its yield
// point and recovered in run.
type procKilled struct{}

// Spawn starts fn as a new simulated process. The process begins executing
// at the current virtual time, after events already scheduled at this
// instant. A panic inside fn is captured and surfaces via Engine.Err.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt is Spawn with the first execution scheduled at virtual time t
// instead of now (past times clamp to the present, like At). It lets a
// scheduler arm a process body directly at its start time with a single
// event, where an At(t, ...) trampoline that Spawns on firing would
// insert two.
func (e *Engine) SpawnAt(t float64, name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, body: fn, slot: len(e.procs)}
	p.next, p.stop = iter.Pull(p.run)
	e.procs = append(e.procs, p)
	e.AtCall(t, p)
	return p
}

// Fire resumes the process; it is the body of every resume event (the
// first one, a Sleep expiring, a Wake). Only the engine calls it. A
// resume queued for a process that has since finished is a no-op.
func (p *Proc) Fire() {
	if !p.done {
		p.next()
	}
}

// run is the coroutine body: it runs the process body and finishes the
// proc however the body ends — by returning, by a panic (reported through
// Engine.Err) or by the procKilled unwind.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		r := recover()
		if _, killed := r.(procKilled); r != nil && !killed {
			p.eng.fail(fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack()))
		}
		p.finish()
	}()
	p.body(p)
}

// finish marks p done, unlists it and drops the body, and through it
// whatever the body closed over, so a *Proc kept after its run pins none
// of it.
func (p *Proc) finish() {
	p.done = true
	p.body = nil
	e := p.eng
	last := len(e.procs) - 1
	moved := e.procs[last]
	e.procs[p.slot] = moved
	moved.slot = p.slot
	e.procs[last] = nil
	e.procs = e.procs[:last]
}

// block switches back to the engine and returns when p is resumed. A
// process killed while blocked here unwinds instead of returning to its
// body.
func (p *Proc) block() {
	if !p.yield(struct{}{}) {
		panic(procKilled{})
	}
}

// Kill ends a parked process where it is blocked: its deferred calls run,
// no further body code does, and resume events already queued for it
// become no-ops. A process that never ran ends without running any of
// its body. Call Kill from the engine context or while the engine is not
// running; killing a finished process is a no-op.
//
// The unwind is a panic with an unexported value, raised where the
// process is parked (runtime.Goexit would take the engine's goroutine
// down with the coroutine). A body that recovers every panic must
// re-panic values it does not know, or it outlives its Kill until its
// next blocking call.
func (e *Engine) Kill(p *Proc) {
	if p.done {
		return
	}
	p.stop() // a parked body unwinds and finishes; an unstarted one never runs
	if !p.done {
		p.finish()
	}
}

// Close kills every live process, which ends its coroutine, so no
// coroutine is left that keeps the engine reachable. Call it once Run has
// returned for the last time; the engine must not run afterwards. A
// second Close is a no-op.
func (e *Engine) Close() {
	for len(e.procs) > 0 {
		e.Kill(e.procs[len(e.procs)-1])
	}
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.eng.now }

// Sleep blocks the process for d seconds of virtual time. Negative
// durations are treated as zero (the process still yields, letting other
// events at the same instant run first).
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		d = 0
	}
	e := p.eng
	e.AtCall(e.now+d, p)
	p.block()
}

// Suspend parks the process until some other process or event callback
// calls Engine.Wake on it. Suspend returns at the virtual time
// of the wake-up.
func (p *Proc) Suspend() {
	p.suspended = true
	p.block()
}

// Wake schedules a suspended process to resume at the current virtual
// time. Waking a process that is not suspended (or already woken at this
// instant) is a no-op; this makes completion notifications idempotent.
func (e *Engine) Wake(p *Proc) {
	if p == nil || p.done || !p.suspended {
		return
	}
	p.suspended = false
	e.AtCall(e.now, p)
}
