package sim

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// goroutinesSettleTo waits for coroutines that were just stopped to
// finish exiting and reports whether the count came down to want.
func goroutinesSettleTo(want int) bool {
	for i := 0; i < 200 && runtime.NumGoroutine() > want; i++ {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine() <= want
}

// drainParked stops every parked worker, so that a test counting
// goroutines does not depend on what earlier tests left on the list.
func drainParked() {
	parked.mu.Lock()
	ws := parked.workers
	parked.workers = nil
	parked.mu.Unlock()
	for _, w := range ws {
		w.stop()
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// A proc killed before its first resume never had a coroutine; one killed
// while parked ends its coroutine at once, and nothing is parked for it.
func TestKillReleasesCoroutine(t *testing.T) {
	drainParked()
	before := runtime.NumGoroutine()
	e := NewEngine()
	ran := false
	unstarted := e.SpawnAt(10, "unstarted", func(p *Proc) { ran = true })
	asleep := e.Spawn("asleep", func(p *Proc) { p.Sleep(10) })
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	if unstarted.w != nil || asleep.w == nil {
		t.Fatalf("workers bound: unstarted %v, asleep %v; want only asleep", unstarted.w != nil, asleep.w != nil)
	}
	if n := runtime.NumGoroutine(); n != before+1 {
		t.Fatalf("%d goroutines with one proc started, want %d", n, before+1)
	}
	e.Kill(unstarted)
	e.Kill(asleep)
	if !unstarted.Done() || !asleep.Done() || ran {
		t.Fatalf("after Kill: done %v %v, unstarted body ran %v", unstarted.Done(), asleep.Done(), ran)
	}
	if !goroutinesSettleTo(before) {
		t.Fatalf("%d goroutines before, %d after Kill", before, runtime.NumGoroutine())
	}
	if err := e.RunAll(); err != nil || ran { // the queued start and wake-up no-op
		t.Fatalf("err %v, unstarted body ran %v", err, ran)
	}
	if len(parked.workers) != 0 {
		t.Fatalf("%d workers parked for killed procs", len(parked.workers))
	}
}

// An engine parks its idle workers when a run returns, with the engine
// cleared, and the next engine short of one takes them: a second engine
// running the same schedule, with Spawn-ed bodies this time, makes no
// coroutine of its own.
func TestParkedWorkersServeTheNextEngine(t *testing.T) {
	drainParked()
	before := runtime.NumGoroutine()
	steps := 0
	body := func(p *Proc) { p.Sleep(0.9); steps++ }
	// Three starts per 1 s slot, each run 0.9 s long: three in flight.
	at := func(e *Engine, i int) float64 { return e.Now() + float64(i/3) + 0.25*float64(i%3) }
	first := NewEngine()
	procs := make([]*Proc, 12)
	for i := range procs {
		procs[i] = first.NewProc("step")
	}
	for round := 0; round < 3; round++ {
		for i, p := range procs {
			first.StartAt(at(first, i), p, BodyFunc(body))
		}
		if err := first.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	if len(first.idle) != 0 || len(parked.workers) != 3 {
		t.Fatalf("%d idle, %d parked after the first engine's runs; want 0 and 3", len(first.idle), len(parked.workers))
	}
	for _, w := range parked.workers {
		if w.eng != nil || w.p != nil {
			t.Fatal("a parked worker still references its engine or proc")
		}
	}
	if n := runtime.NumGoroutine(); n != before+3 {
		t.Fatalf("%d goroutines, want %d", n, before+3)
	}
	second := NewEngine()
	for i := 0; i < 12; i++ {
		second.SpawnAt(at(second, i), "spawned", body)
	}
	if err := second.RunAll(); err != nil {
		t.Fatal(err)
	}
	first.Close()
	second.Close()
	if steps != 48 || len(parked.workers) != 3 {
		t.Fatalf("steps %d (want 48), %d parked (want 3)", steps, len(parked.workers))
	}
	if n := runtime.NumGoroutine(); n != before+3 {
		t.Fatalf("%d goroutines after the second engine, want %d", n, before+3)
	}
}

// A parked worker keeps no engine alive: once the engine that ran it is
// dropped, the collector frees it while its workers wait on the parked
// list. The witness is a sentinel only the engine's pending event holds.
func TestParkedWorkerPinsNoEngine(t *testing.T) {
	drainParked()
	freed := make(chan struct{}, 1)
	func() {
		e := NewEngine()
		sentinel := new([64]byte)
		runtime.SetFinalizer(sentinel, func(*[64]byte) { freed <- struct{}{} })
		e.At(100, func() { sentinel[0]++ })
		e.StartAt(0, e.NewProc("step"), BodyFunc(func(p *Proc) { p.Sleep(1) }))
		e.Spawn("spawned", func(p *Proc) { p.Sleep(2) })
		if err := e.Run(10); err != nil {
			t.Fatal(err)
		}
	}()
	if len(parked.workers) != 2 {
		t.Fatalf("%d workers parked, want 2", len(parked.workers))
	}
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("the engine is still reachable from its parked workers")
	}
}

// The parked list holds parkCap workers; park stops the ones past it.
func TestParkStopsWorkersPastTheCap(t *testing.T) {
	drainParked()
	before := runtime.NumGoroutine()
	e := NewEngine()
	for i := 0; i < parkCap+5; i++ {
		e.Spawn("wide", func(p *Proc) { p.Sleep(1) })
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(parked.workers) != parkCap || !goroutinesSettleTo(before+parkCap) {
		t.Fatalf("%d parked (want %d), %d goroutines (want %d)", len(parked.workers), parkCap, runtime.NumGoroutine(), before+parkCap)
	}
	drainParked()
	if !goroutinesSettleTo(before) {
		t.Fatalf("%d goroutines before, %d after draining", before, runtime.NumGoroutine())
	}
}

// Four goroutines run engines at once through the one parked list, with
// StartAt and Spawn-ed bodies, and a run that returns with procs still in
// flight: every body runs to its end on a worker bound to its own engine
// (run under -race -count=10).
func TestParkedListSharedByConcurrentEngines(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 25; k++ {
				e := NewEngine()
				spawned := 0
				bodies := make([]*countBody, 8)
				for i := range bodies {
					bodies[i] = &countBody{id: g + i}
					e.StartAt(float64(i%3), e.NewProc("step"), bodies[i])
					e.SpawnAt(float64(i%4), "spawned", func(p *Proc) {
						p.Sleep(0.5)
						if p.w.eng == e {
							spawned++
						}
					})
				}
				if err := e.Run(2); err != nil {
					t.Error(err)
					return
				}
				if err := e.RunAll(); err != nil {
					t.Error(err)
					return
				}
				e.Close()
				for _, b := range bodies {
					if b.runs != b.id+1 {
						t.Errorf("goroutine %d engine %d: body %d ran %d, want %d", g, k, b.id, b.runs, b.id+1)
					}
				}
				if spawned != len(bodies) {
					t.Errorf("goroutine %d engine %d: %d of %d spawned bodies ran on their engine's worker", g, k, spawned, len(bodies))
				}
			}
		}(g)
	}
	wg.Wait()
}

// A body panic surfaces through Engine.Err, and the worker it unwound is
// not trusted with another proc.
func TestProcPanicWorkerNotPooled(t *testing.T) {
	drainParked()
	before := runtime.NumGoroutine()
	e := NewEngine()
	p := e.NewProc("bad")
	e.StartAt(0, p, BodyFunc(func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	}))
	err := e.RunAll()
	if err == nil || !strings.Contains(err.Error(), `"bad"`) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want the proc name and panic value", err)
	}
	if !p.Done() || e.LiveProcs() != 0 || len(e.idle) != 0 || len(parked.workers) != 0 {
		t.Fatalf("done %v, live %d, idle %d, parked %d; want true 0 0 0", p.Done(), e.LiveProcs(), len(e.idle), len(parked.workers))
	}
	if !goroutinesSettleTo(before) {
		t.Fatalf("%d goroutines before, %d after", before, runtime.NumGoroutine())
	}
}

func TestStartAtMisusePanics(t *testing.T) {
	e := NewEngine()
	body := func(p *Proc) { p.Sleep(1) }
	live := e.NewProc("live")
	e.StartAt(0, live, BodyFunc(body))
	mustPanic(t, "StartAt on a started proc", func() { e.StartAt(0, live, BodyFunc(body)) })
	if err := e.Run(0.5); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "StartAt on a parked proc", func() { e.StartAt(0, live, BodyFunc(body)) })
	e.Kill(live)
	mustPanic(t, "StartAt on a killed proc", func() { e.StartAt(0, live, BodyFunc(body)) })
	spawned := e.Spawn("spawned", func(p *Proc) {})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "StartAt on a Spawn-ed proc", func() { e.StartAt(0, spawned, BodyFunc(body)) })
}

// StartAt and SpawnAt each take exactly one (t, seq) slot, at the call,
// among At events at the same instant: the contract the fleet digest
// relies on when a barrier arms steps in session order.
func TestStartAtSpawnAtTakeOneSlotInCallOrder(t *testing.T) {
	e := NewEngine()
	var got []string
	mark := func(s string) func() { return func() { got = append(got, s) } }
	body := func(s string) func(*Proc) { return func(*Proc) { got = append(got, s) } }
	p := e.NewProc("p")
	seq0 := e.seq
	e.At(5, mark("a"))
	e.StartAt(5, p, BodyFunc(body("b")))
	e.At(5, mark("c"))
	e.SpawnAt(5, "d", body("d"))
	e.At(5, mark("e"))
	if e.seq-seq0 != 5 || e.Pending() != 5 {
		t.Fatalf("5 calls took %d seqs, %d events pending", e.seq-seq0, e.Pending())
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if s := strings.Join(got, ""); s != "abcde" {
		t.Fatalf("order %q, want abcde", s)
	}
	// A finished run leaves nothing queued, so a second one is again one slot.
	seq0 = e.seq
	e.StartAt(6, p, BodyFunc(body("f")))
	if e.seq-seq0 != 1 || e.Pending() != 1 {
		t.Fatalf("restart took %d seqs, %d events pending", e.seq-seq0, e.Pending())
	}
}

// Starting, running and finishing a reusable proc on a warm pool
// allocates nothing: the event comes off the freelist, the worker off the
// parked list that the previous RunAll returned it to, and the proc is its
// own callback.
func TestStartAtSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	p := e.NewProc("step")
	body := func(p *Proc) { p.Sleep(1) }
	run := func() {
		e.StartAt(e.Now(), p, BodyFunc(body))
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: one worker, two events, procs capacity
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("StartAt + run + finish allocates %v objects per run, want 0", allocs)
	}
}

// A *Proc kept after its run must not keep the body, or what the body
// closed over, reachable — for a session that is its whole step history.
func TestFinishedProcDropsBody(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	freed := make(chan struct{}, 2)
	start := func(run func(fn func(*Proc)) *Proc) *Proc {
		big := new([1 << 16]byte)
		runtime.SetFinalizer(big, func(*[1 << 16]byte) { freed <- struct{}{} })
		return run(func(p *Proc) { p.Sleep(1); big[0]++ })
	}
	spawned := start(func(fn func(*Proc)) *Proc { return e.Spawn("spawned", fn) })
	reused := start(func(fn func(*Proc)) *Proc {
		p := e.NewProc("reused")
		e.StartAt(0, p, BodyFunc(fn))
		return p
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	for got := 0; got < 2; got++ {
		runtime.GC()
		select {
		case <-freed:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of 2 finished procs dropped their body", got)
		}
	}
	runtime.KeepAlive(spawned)
	runtime.KeepAlive(reused)
}

// countBody is a Body that is its own state, the way the fleet's session
// is: StartAt boxes the pointer, nothing is built per run.
type countBody struct{ id, runs int }

func (b *countBody) Run(p *Proc) {
	p.Sleep(float64(b.id%7) * 0.125)
	b.runs += b.id + 1
}

// NewProc hands out slots of engine-held chunks and schedule takes its
// freelist misses from another: procs made before a chunk boundary must
// stay valid and their own after it, each must run the body it was
// started with, and two engines must never hand out the same slot.
func TestNewProcsStayDistinct(t *testing.T) {
	const n = 1000
	engs := [2]*Engine{NewEngine(), NewEngine()}
	seen := map[*Proc]bool{}
	var procs [2][]*Proc
	var bodies [2][]*countBody
	for i := 0; i < n; i++ {
		for k, e := range engs { // interleaved: a shared chunk would alternate owners
			p := e.NewProc("p")
			if seen[p] || p.Engine() != e || !p.Done() {
				t.Fatalf("engine %d proc %d: duplicate %t, engine ok %t, done %t", k, i, seen[p], p.Engine() == e, p.Done())
			}
			seen[p] = true
			procs[k] = append(procs[k], p)
			bodies[k] = append(bodies[k], &countBody{id: i})
		}
	}
	for round := 1; round <= 2; round++ {
		for k, e := range engs {
			// All n starts queued before one drains: n events, far past the
			// freelist, so the event chunks cross their boundaries too.
			for i, p := range procs[k] {
				e.StartAt(e.Now()+float64(i%5), p, bodies[k][i])
			}
			if err := e.RunAll(); err != nil {
				t.Fatal(err)
			}
			for i, b := range bodies[k] {
				if b.runs != round*(i+1) || !procs[k][i].Done() {
					t.Fatalf("engine %d proc %d after round %d: runs %d, done %t", k, i, round, b.runs, procs[k][i].Done())
				}
			}
		}
	}
	for _, e := range engs {
		if e.LiveProcs() != 0 || e.Pending() != 0 {
			t.Fatalf("live %d, pending %d", e.LiveProcs(), e.Pending())
		}
		e.Close()
	}
}

// A thousand procs and the events that start them cost a few chunks each,
// not an object each; the proc struct stays on its 64-byte size class with
// the body as an interface (an extra word would put it in the 80-byte one).
func TestNewProcAndEventsComeFromChunks(t *testing.T) {
	if n := unsafe.Sizeof(Proc{}); n > 64 {
		t.Errorf("sizeof(Proc) = %d, want <= 64", n)
	}
	if n := unsafe.Sizeof(event{}); n > 40 {
		t.Errorf("sizeof(event) = %d, want <= 40", n)
	}
	const n = 1000
	body := &countBody{}
	allocs := testing.AllocsPerRun(5, func() {
		e := NewEngine()
		for i := 0; i < n; i++ {
			e.StartAt(1, e.NewProc("p"), body)
		}
		e.Close()
	})
	// One object per proc and per event before; now chunks of each plus the
	// log-many growth steps of the event heap and the live list.
	if allocs > n/4 {
		t.Fatalf("%d procs armed cost %v objects, want <= %d", n, allocs, n/4)
	}
}
