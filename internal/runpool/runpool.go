// Package runpool is the deterministic parallel scenario runner behind
// tangobench: a bounded pool whose jobs are independent simulation
// scenarios (each owning its own sim.Engine, trace.Recorder, and staged
// store), submitted as futures and collected in submission order. The
// bound is a channel of slots, one per concurrent job; the package holds
// no lock.
//
// The determinism contract (docs/performance.md):
//
//   - Jobs must be independent: no shared mutable state beyond
//     synchronized, value-deterministic caches (e.g. the harness's
//     single-flight hierarchy memo). Each job builds everything else it
//     touches.
//   - Results are collected by Wait in submission order at the call site,
//     so tables, JSON suites, and byte-match determinism tests render
//     identically whatever the interleaving of job execution.
//   - With Workers() == 1 nothing runs concurrently at all: Submit only
//     records the job and Wait executes it inline on the caller's
//     goroutine, reproducing the exact sequential execution order.
//
// Nested submission is safe: a job may itself Submit sub-jobs and Wait on
// them. Wait executes a still-unclaimed task inline on the waiting
// goroutine (claim-or-wait), so progress never depends on a free slot
// and the pool cannot deadlock however deep the nesting.
package runpool

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// Task states, transitioned with atomic CAS so exactly one goroutine
// (a pool worker or the waiter) executes the job.
const (
	statePending int32 = iota
	stateRunning
	stateDone
)

// runnable is the untyped view of a Task a pool goroutine runs.
type runnable interface {
	// tryRun claims and executes the task; it reports false if another
	// goroutine had already claimed it.
	tryRun() bool
}

// Task is a submitted job: a future resolved by Wait.
type Task[T any] struct {
	name  string
	fn    func() T
	state atomic.Int32
	done  chan struct{}
	res   T
	panic any // non-nil if fn panicked; re-raised by Wait
}

// tryRun claims the task and runs it on the calling goroutine.
func (t *Task[T]) tryRun() bool {
	if !t.state.CompareAndSwap(statePending, stateRunning) {
		return false
	}
	defer func() {
		if r := recover(); r != nil {
			t.panic = r
		}
		t.state.Store(stateDone)
		close(t.done)
	}()
	t.res = t.fn()
	return true
}

// Wait blocks until the task has run and returns its result. If the task
// is still unclaimed, Wait executes it inline on the calling goroutine —
// this is what makes nested submission deadlock-free and what makes the
// single-worker pool identical to sequential execution. A panic raised by
// the job resurfaces from Wait on the waiting goroutine.
func (t *Task[T]) Wait() T {
	if !t.tryRun() {
		<-t.done
	}
	if t.panic != nil {
		panic(fmt.Sprintf("runpool: job %q: %v", t.name, t.panic))
	}
	return t.res
}

// slots is the process-wide pool: its capacity is the width, and a job
// runs on a pool goroutine only while that goroutine holds one of its
// slots. It starts at GOMAXPROCS.
var slots atomic.Pointer[chan struct{}]

func init() { SetWorkers(0) }

// SetWorkers configures the pool width: the maximum number of jobs
// executing concurrently (not counting Wait running a job inline).
// n <= 0 resets to GOMAXPROCS. Width 1 disables pooled execution
// entirely: jobs run inline at Wait, in collection order.
//
// Call between runs, not while jobs are in flight: tangobench sets it
// once from -parallel before submitting anything.
func SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	ch := make(chan struct{}, n)
	slots.Store(&ch)
}

// Workers reports the configured pool width.
func Workers() int { return cap(*slots.Load()) }

// Submit registers a job and returns its future. With pool width 1 the
// job is only recorded — Wait runs it inline, preserving the sequential
// execution order exactly. Otherwise a goroutine is started that runs the
// job once it holds a slot, unless Wait has claimed it first; an idle
// pool holds no goroutines.
func Submit[T any](name string, fn func() T) *Task[T] {
	t := &Task[T]{name: name, fn: fn, done: make(chan struct{})}
	if p := *slots.Load(); cap(p) > 1 {
		go run(p, t)
	}
	return t
}

// run executes t on a pool goroutine while holding a slot of p.
func run(p chan struct{}, t runnable) {
	p <- struct{}{}
	t.tryRun() // false when the submitter already ran it inline via Wait
	<-p
}
