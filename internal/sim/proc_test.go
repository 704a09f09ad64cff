package sim

import (
	"runtime"
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

// Each proc owns one coroutine from spawn to end: a finished proc has
// ended its coroutine, and Kill ends the coroutine of one parked or never
// started, the latter without running any of its body.
func TestKillReleasesCoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	ran := false
	unstarted := e.SpawnAt(10, "unstarted", func(p *Proc) { ran = true })
	asleep := e.Spawn("asleep", func(p *Proc) { p.Sleep(10) })
	finished := e.Spawn("finished", func(p *Proc) {})
	if n := runtime.NumGoroutine(); n != before+3 {
		t.Fatalf("%d goroutines with three procs spawned, want %d", n, before+3)
	}
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	if !finished.Done() || !goroutinesSettleTo(before+2) {
		t.Fatalf("finished %v, %d goroutines; want true and %d", finished.Done(), runtime.NumGoroutine(), before+2)
	}
	e.Kill(unstarted)
	e.Kill(asleep)
	if !unstarted.Done() || !asleep.Done() || ran || e.LiveProcs() != 0 {
		t.Fatalf("after Kill: done %v %v, unstarted body ran %v, live %d", unstarted.Done(), asleep.Done(), ran, e.LiveProcs())
	}
	if !goroutinesSettleTo(before) {
		t.Fatalf("%d goroutines before, %d after Kill", before, runtime.NumGoroutine())
	}
	if err := e.RunAll(); err != nil || ran { // the queued start and wake-up no-op
		t.Fatalf("err %v, unstarted body ran %v", err, ran)
	}
}

// A *Proc kept after its run must not keep the body, or what the body
// closed over, reachable — for a session that is its whole step history.
func TestFinishedProcDropsBody(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	freed := make(chan struct{}, 1)
	spawn := func() *Proc {
		big := new([1 << 16]byte)
		runtime.SetFinalizer(big, func(*[1 << 16]byte) { freed <- struct{}{} })
		return e.Spawn("spawned", func(p *Proc) { p.Sleep(1); big[0]++ })
	}
	p := spawn()
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("a finished proc still holds its body")
	}
	runtime.KeepAlive(p)
}

// A thousand events armed at once cost a few chunks, not an object each.
func TestEventsComeFromChunks(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 32 {
		t.Errorf("sizeof(event) = %d, want <= 32", n)
	}
	const n = 1000
	cb := &countCallback{}
	allocs := testing.AllocsPerRun(5, func() {
		e := NewEngine()
		for i := 0; i < n; i++ {
			e.AtCall(1, cb)
		}
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
	})
	// One object per event before; now chunks of them plus the log-many
	// growth steps of the event heap and the freelist.
	if allocs > n/8 || cb.n != 6*n {
		t.Fatalf("%d events armed cost %v objects (want <= %d), fired %d (want %d)", n, allocs, n/8, cb.n, 6*n)
	}
}

// countCallback counts its firings.
type countCallback struct{ n int }

func (c *countCallback) Fire() { c.n++ }
