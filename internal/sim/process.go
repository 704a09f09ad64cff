package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sync"
)

// Proc is a simulated process: a coroutine that runs user code and
// switches back to the engine whenever it blocks on virtual time (Sleep)
// or on an external wake-up (Suspend). A Proc must only call its blocking
// methods from its own body function.
//
// A Proc implements Callback: the event that resumes it is the proc
// itself, so arming a resume allocates nothing.
type Proc struct {
	eng  *Engine
	name string

	body Body    // what the current run executes; nil once it has returned
	w    *worker // coroutine running body; bound at first resume, nil before and after

	slot     int  // index in eng.procs while live
	reusable bool // made by NewProc: StartAt may run it again

	done      bool
	suspended bool
	killed    bool
}

// worker is one coroutine (iter.Pull) that runs proc bodies. A worker
// whose body returned waits on its engine's idle list and runs whichever
// proc resumes next, so a running engine holds as many of them as it has
// procs in flight at once, not one per proc. When Run, RunAll or Close
// returns, the engine parks its idle workers process-wide, where the next
// engine short of one takes it. A killed or panicked body ends its worker.
type worker struct {
	eng   *Engine // the engine it runs procs for; nil while parked
	p     *Proc   // the proc whose body is running; nil while idle
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// Body is what a process runs: an interface rather than a func, so that an
// object which already holds a run's state (the fleet's session) is the
// body itself — a pointer boxes for free, a func would be a closure each.
type Body interface{ Run(p *Proc) }

// BodyFunc adapts a plain func to Body; func values box for free too.
type BodyFunc func(p *Proc)

// Run calls f(p).
func (f BodyFunc) Run(p *Proc) { f(p) }

// procKilled is the panic a killed proc unwinds with, raised at its yield
// point and recovered in worker.exec.
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
	p := &Proc{eng: e, name: name}
	e.list(p, BodyFunc(fn))
	e.AtCall(t, p)
	return p
}

// NewProc returns a finished process that StartAt can run, any number of
// times. It costs one slot of an engine-held chunk: no coroutine is bound
// to it until a run's first resume, and that one comes from the engine's
// idle list or the parked list when either has one.
func (e *Engine) NewProc(name string) *Proc {
	p := e.procSlab.Next()
	*p = Proc{eng: e, name: name, reusable: true, done: true}
	return p
}

// StartAt runs body in p, a finished process made by NewProc, from the
// top at virtual time t (clamped to the present, like At). Like SpawnAt
// it inserts exactly one event, at the call: the first resume. A process
// drops its body when it finishes, so every run names it again. Starting
// a live process, a killed one (resumes queued for the run that was
// killed may still be pending) or one not made by NewProc panics.
func (e *Engine) StartAt(t float64, p *Proc, body Body) {
	if !p.reusable || !p.done || p.killed {
		panic(fmt.Sprintf("sim: StartAt on process %q, which is live, killed or not from NewProc", p.name))
	}
	e.list(p, body)
	e.AtCall(t, p)
}

// list makes p live with body; the caller arms its first resume.
func (e *Engine) list(p *Proc, body Body) {
	p.body = body
	p.done = false
	p.slot = len(e.procs)
	e.procs = append(e.procs, p)
}

// Fire resumes the process; it is the body of every resume event (the
// first one, a Sleep expiring, a Wake). Only the engine calls it.
func (p *Proc) Fire() { p.eng.resume(p) }

// resume switches to p and returns when p yields or finishes. It must be
// called from the engine context (an event callback). A resume queued for
// a process that has since finished is a no-op.
func (e *Engine) resume(p *Proc) {
	if p.done {
		return
	}
	w := p.w
	if w == nil {
		w = e.bind(p)
	}
	w.next()
}

// bind gives p the coroutine that runs its body: one of the engine's idle
// workers, else a parked one, else a new one.
func (e *Engine) bind(p *Proc) *worker {
	var w *worker
	if n := len(e.idle); n > 0 {
		w = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else if w = unpark(); w != nil {
		w.eng = e
	} else {
		w = &worker{eng: e}
		//lint:ignore hotpath coroutine creation: once per miss of both the idle and the parked list, amortized by them like the make/new refill idiom
		w.next, w.stop = iter.Pull(w.run)
	}
	w.p, p.w = p, w
	return w
}

// parkCap bounds the stacks left parked (park stops the rest); a
// 1000-node fleet run makes 53 workers in all.
const parkCap = 256

// parked holds the idle workers of every engine between runs.
var parked struct {
	mu      sync.Mutex
	workers []*worker // guarded by mu
}

// park hands e's idle workers to the parked list, each with its engine
// cleared so that it keeps no node reachable, and stops those past
// parkCap.
func (e *Engine) park() {
	if len(e.idle) == 0 {
		return
	}
	for _, w := range e.idle {
		w.eng = nil
	}
	parked.mu.Lock()
	n := min(len(e.idle), parkCap-len(parked.workers))
	parked.workers = append(parked.workers, e.idle[:n]...)
	parked.mu.Unlock()
	for _, w := range e.idle[n:] {
		w.stop()
	}
	clear(e.idle)
	e.idle = e.idle[:0]
}

// unpark takes a worker off the parked list, or returns nil if it is empty.
func unpark() *worker {
	parked.mu.Lock()
	defer parked.mu.Unlock()
	n := len(parked.workers)
	if n == 0 {
		return nil
	}
	w := parked.workers[n-1]
	parked.workers[n-1] = nil
	parked.workers = parked.workers[:n-1]
	return w
}

// run is the coroutine body: run the bound proc to its end, then wait
// idle until bind hands over another, or end when exec says not to go on
// or park stops the worker.
func (w *worker) run(yield func(struct{}) bool) {
	w.yield = yield
	for w.exec() {
		w.eng.idle = append(w.eng.idle, w)
		if !yield(struct{}{}) {
			return
		}
	}
}

// exec runs the bound proc's body and finishes the proc however the body
// ends: by returning, by a panic (reported through Engine.Err) or by the
// procKilled unwind. Only a worker whose body returned is fit to run
// another.
func (w *worker) exec() (reuse bool) {
	p := w.p
	defer func() {
		r := recover()
		if _, killed := r.(procKilled); r != nil && !killed {
			w.eng.fail(fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack()))
		}
		reuse = r == nil
		p.finish()
	}()
	p.body.Run(p)
	return
}

// finish marks p done, unlists it and drops everything the run held — the
// body, and through it whatever the body closed over, and the worker — so
// a *Proc kept after its run pins none of it.
func (p *Proc) finish() {
	p.done = true
	p.body = nil
	if p.w != nil {
		p.w.p = nil
		p.w = nil
	}
	p.eng.unlist(p)
}

// yield switches back to the engine and returns when p is resumed. A
// process killed while parked here unwinds instead of returning to its
// body.
func (p *Proc) yield() {
	if !p.w.yield(struct{}{}) {
		panic(procKilled{})
	}
}

// Kill ends a parked process where it is blocked: its deferred calls run,
// no further body code does, and resume events already queued for it
// become no-ops. A process that never ran ends without a coroutine ever
// existing for it. Call Kill from the engine context or while the engine
// is not running; killing a finished process is a no-op.
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
	p.killed = true
	if p.w == nil {
		p.finish()
		return
	}
	p.w.stop() // the parked yield returns false; exec finishes p
}

// unlist swap-removes a finishing process from the live list. It runs on
// the process's coroutine while the engine is switched out in resume.
func (e *Engine) unlist(p *Proc) {
	last := len(e.procs) - 1
	moved := e.procs[last]
	e.procs[p.slot] = moved
	moved.slot = p.slot
	e.procs[last] = nil
	e.procs = e.procs[:last]
}

// Close kills every live process, which ends its coroutine, and parks
// the idle workers process-wide like Run does, so no coroutine is left
// that keeps the engine's node reachable. Call it once Run has returned
// for the last time; the engine must not run afterwards. A second Close is
// a no-op.
func (e *Engine) Close() {
	for len(e.procs) > 0 {
		e.Kill(e.procs[len(e.procs)-1])
	}
	e.park()
}

// Name returns the process name given at Spawn or NewProc.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.eng.now }

// Done reports whether the process body has returned (or, for a process
// from NewProc, has not been started).
func (p *Proc) Done() bool { return p.done }

// Sleep blocks the process for d seconds of virtual time. Negative
// durations are treated as zero (the process still yields, letting other
// events at the same instant run first).
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		d = 0
	}
	e := p.eng
	e.AtCall(e.now+d, p)
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
	e.AtCall(e.now, p)
}

// Wake is a convenience for Engine.Wake from another process context.
func (p *Proc) Wake(other *Proc) { p.eng.Wake(other) }
