package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// Proc is a simulated process: a goroutine that runs user code and yields
// control back to the engine whenever it blocks on virtual time (Sleep) or
// on an external wake-up (Suspend). A Proc must only call its blocking
// methods from its own body function.
type Proc struct {
	eng  *Engine
	name string

	wake chan struct{} // engine -> proc: run until next yield
	yld  chan struct{} // proc -> engine: parked or finished

	resumeFn func() // cached e.resume(p) closure; one alloc per process, not per Sleep
	slot     int    // index in eng.procs while live

	done      bool
	suspended bool
	killed    bool
	err       error
}

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
	p := &Proc{
		eng:  e,
		name: name,
		wake: make(chan struct{}),
		yld:  make(chan struct{}),
	}
	p.resumeFn = func() { e.resume(p) }
	p.slot = len(e.procs)
	e.procs = append(e.procs, p)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				p.err = fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack())
			}
			p.done = true
			p.eng.unlist(p)
			p.yld <- struct{}{}
		}()
		p.park() // wait for first resume
		fn(p)
	}()
	e.At(t, p.resumeFn)
	return p
}

// resume transfers control to p and blocks until p yields or finishes.
// It must be called from the engine context (an event callback).
func (e *Engine) resume(p *Proc) {
	if p.done {
		return
	}
	p.wake <- struct{}{}
	<-p.yld
	if p.err != nil {
		e.fail(p.err)
	}
}

// yield transfers control back to the engine and blocks until resumed.
func (p *Proc) yield() {
	p.yld <- struct{}{}
	p.park()
}

// park blocks until the engine resumes p. A process killed while parked
// unwinds from here instead of returning to its body.
func (p *Proc) park() {
	<-p.wake
	if p.killed {
		runtime.Goexit()
	}
}

// Kill ends a parked process where it is blocked: its deferred calls run,
// no further body code does, and resume events already queued for it
// become no-ops. Call it from the engine context or while the engine is
// not running; killing a finished process is a no-op.
func (e *Engine) Kill(p *Proc) {
	p.killed = true
	e.resume(p)
}

// unlist swap-removes a finishing process from the live list. It runs on
// the process's goroutine while the engine is blocked in resume.
func (e *Engine) unlist(p *Proc) {
	last := len(e.procs) - 1
	moved := e.procs[last]
	e.procs[p.slot] = moved
	moved.slot = p.slot
	e.procs[last] = nil
	e.procs = e.procs[:last]
}

// Close kills every live process, so none outlives the engine parked on
// a goroutine that keeps its whole node reachable. Call it once Run has
// returned for the last time; the engine must not run afterwards. A
// second Close is a no-op.
func (e *Engine) Close() {
	for len(e.procs) > 0 {
		e.Kill(e.procs[len(e.procs)-1])
	}
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.eng.now }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// Sleep blocks the process for d seconds of virtual time. Negative
// durations are treated as zero (the process still yields, letting other
// events at the same instant run first).
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		d = 0
	}
	e := p.eng
	e.At(e.now+d, p.resumeFn)
	p.yield()
}

// Suspend parks the process until some other process or event callback
// calls Engine.Wake (or p.Wake) on it. Suspend returns at the virtual time
// of the wake-up.
func (p *Proc) Suspend() {
	p.suspended = true
	p.yield()
}

// Wake schedules a suspended process to resume at the current virtual
// time. Waking a process that is not suspended (or already woken at this
// instant) is a no-op; this makes completion notifications idempotent.
func (e *Engine) Wake(p *Proc) {
	if p == nil || p.done || !p.suspended {
		return
	}
	p.suspended = false
	e.At(e.now, p.resumeFn)
}

// Wake is a convenience for Engine.Wake from another process context.
func (p *Proc) Wake(other *Proc) { p.eng.Wake(other) }

// WakeAt schedules a suspended process to resume at virtual time t
// (clamped to the present, like At). It is Wake with the resume placed
// in the future: the caller commits the wake-up now, with the resume
// event taking the queue slot the commit point owns, instead of firing a
// trampoline event at t that wakes the process with a second event. A
// process already woken (or not suspended) is left alone. Between the
// call and t the process no longer counts as suspended, so intervening
// Wake calls no-op rather than pull the resume earlier.
func (e *Engine) WakeAt(t float64, p *Proc) {
	if p == nil || p.done || !p.suspended {
		return
	}
	p.suspended = false
	e.At(t, p.resumeFn)
}
