package sim

import (
	"runtime"
	"strings"
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
// while parked gives its coroutine back at once.
func TestKillReleasesCoroutine(t *testing.T) {
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
}

// Reusable procs share workers: the idle list grows to the number of runs
// in flight at once, not the number of procs, and Close stops them all.
func TestStartAtPoolsWorkersUntilClose(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	procs := make([]*Proc, 12)
	for i := range procs {
		procs[i] = e.NewProc("step")
	}
	steps := 0
	body := func(p *Proc) { p.Sleep(0.9); steps++ }
	for round := 0; round < 3; round++ {
		for i, p := range procs {
			// Three starts per 1 s slot, each run 0.9 s long: three in flight.
			e.StartAt(e.Now()+float64(i/3)+0.25*float64(i%3), p, BodyFunc(body))
		}
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	if steps != 36 || e.LiveProcs() != 0 {
		t.Fatalf("steps %d (want 36), live %d", steps, e.LiveProcs())
	}
	if len(e.idle) != 3 {
		t.Fatalf("%d idle workers, want 3", len(e.idle))
	}
	if n := runtime.NumGoroutine(); n != before+3 {
		t.Fatalf("%d goroutines, want %d", n, before+3)
	}
	e.Close()
	if len(e.idle) != 0 || !goroutinesSettleTo(before) {
		t.Fatalf("after Close: %d idle, %d goroutines (before: %d)", len(e.idle), runtime.NumGoroutine(), before)
	}
	e.Close()
}

// A body panic surfaces through Engine.Err, and the worker it unwound is
// not trusted with another proc.
func TestProcPanicWorkerNotPooled(t *testing.T) {
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
	if !p.Done() || e.LiveProcs() != 0 || len(e.idle) != 0 {
		t.Fatalf("done %v, live %d, idle %d; want true 0 0", p.Done(), e.LiveProcs(), len(e.idle))
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
// idle list, and the proc is its own callback.
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
