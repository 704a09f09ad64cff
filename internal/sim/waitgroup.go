package sim

import "fmt"

// WaitGroup coordinates a process with a set of concurrent simulated
// tasks, mirroring sync.WaitGroup but in virtual time: Add registers
// tasks, Done completes one, and Wait parks the calling process until the
// count drains. Unlike sync.WaitGroup it is engine-serialized, so no
// atomicity is needed — but only one process may Wait at a time.
type WaitGroup struct {
	eng     *Engine
	count   int
	waiter  *Proc
	waiting bool
}

// NewWaitGroup creates a WaitGroup bound to an engine.
func NewWaitGroup(eng *Engine) *WaitGroup {
	return &WaitGroup{eng: eng}
}

// Add increases the outstanding-task count by n (n may be negative, like
// sync.WaitGroup; the count must not go below zero).
func (wg *WaitGroup) Add(n int) {
	wg.count += n
	if wg.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.count == 0 {
		wg.release()
	}
}

// Done completes one task.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait parks p until the count reaches zero. It returns immediately if
// the count is already zero. Only one process may wait at a time.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	if wg.waiting {
		panic(fmt.Sprintf("sim: WaitGroup already has a waiter (%q)", wg.waiter.Name()))
	}
	wg.waiter = p
	wg.waiting = true
	for wg.waiting {
		p.Suspend()
	}
}

func (wg *WaitGroup) release() {
	if !wg.waiting {
		return
	}
	wg.waiting = false
	wg.eng.Wake(wg.waiter)
	wg.waiter = nil
}

// Go spawns fn as a new process tracked by the WaitGroup: Add(1) before
// the spawn, Done when fn returns.
func (wg *WaitGroup) Go(name string, fn func(p *Proc)) {
	wg.Add(1)
	wg.eng.Spawn(name, func(p *Proc) {
		defer wg.Done()
		fn(p)
	})
}
