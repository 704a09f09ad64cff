package sim

import (
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(2.0, func() { got = append(got, 2) })
	e.At(1.0, func() { got = append(got, 1) })
	e.At(3.0, func() { got = append(got, 3) })
	e.At(1.0, func() { got = append(got, 10) }) // same time: FIFO
	// A process start and a Callback each take one slot, at the call.
	e.SpawnAt(1.0, "p", func(*Proc) { got = append(got, 11) })
	e.AtCall(1.0, fireFunc(func() { got = append(got, 12) }))
	if n := e.Scheduled(); n != 6 {
		t.Fatalf("6 calls armed %d events", n)
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 10, 11, 12, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

// fireFunc is a func as a Callback.
type fireFunc func()

func (f fireFunc) Fire() { f() }

func TestRunUntilStopsClock(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(5.0, func() { fired = true })
	if err := e.Run(3.0); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event at t=5 fired during Run(3)")
	}
	if e.Now() != 3.0 {
		t.Fatalf("Now() = %v, want 3.0", e.Now())
	}
	if err := e.Run(5.0); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event at t=5 did not fire during Run(5)")
	}
}

func TestEventAtBoundaryFires(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(3.0, func() { fired = true })
	if err := e.Run(3.0); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event exactly at until-time must fire")
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.At(1.0, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

// TestStoppedTimerDoesNotAdvanceClock: a timer neutered by Stop drains
// from the heap without moving the clock, so after RunAll Now is the time
// of the last event that ran — every early-finished deadlined attempt
// used to leave one behind, and Now reported its cancelled deadline.
func TestStoppedTimerDoesNotAdvanceClock(t *testing.T) {
	e := NewEngine()
	e.At(1, func() {})
	e.At(e.Now()+5, func() { t.Error("stopped func timer fired") }).Stop()
	e.AtCall(7, &countCallback{}).Stop()
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 1 || e.Pending() != 0 {
		t.Fatalf("after RunAll: Now %v (want 1, the last live event), %d pending", e.Now(), e.Pending())
	}
	// Run(until) is unchanged: it still ends at until, past the corpse.
	e.At(3, func() {}).Stop()
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 2 {
		t.Fatalf("Run(2) left the clock at %v", e.Now())
	}
	var at float64
	e.At(4, func() { at = e.Now() })
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if at != 4 || e.Now() != 10 {
		t.Fatalf("live event saw %v (want 4), Run(10) ended at %v", at, e.Now())
	}
}

func TestPastEventClampsToNow(t *testing.T) {
	e := NewEngine()
	e.Run(10)
	var at float64 = -1
	e.At(5.0, func() { at = e.Now() })
	e.RunAll()
	if at != 10.0 {
		t.Fatalf("past event fired at %v, want clamped to 10", at)
	}
}

func TestProcSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(1.5)
			times = append(times, p.Now())
		}
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 3.0, 4.5}
	for i, w := range want {
		if times[i] != w {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", e.LiveProcs())
	}
}

func TestInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for i, d := range []float64{3, 1, 2} {
			name := string(rune('A' + i))
			dd := d
			e.Spawn(name, func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(dd)
					log = append(log, name)
				}
			})
		}
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	for i := 0; i < 5; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
	// B wakes at 1,2,3; C at 2,4,6; A at 3,6,9. At t=2, C's event was
	// scheduled earlier (t=0) than B's (t=1), so FIFO puts C first.
	want := []string{"B", "C", "B", "A", "B", "C", "A", "C", "A"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("unexpected order: %v, want %v", first, want)
		}
	}
}

func TestSuspendWake(t *testing.T) {
	e := NewEngine()
	var wokenAt float64 = -1
	sleeper := e.Spawn("sleeper", func(p *Proc) {
		p.Suspend()
		wokenAt = p.Now()
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(7)
		e.Wake(sleeper)
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if wokenAt != 7 {
		t.Fatalf("woken at %v, want 7", wokenAt)
	}
}

func TestDoubleWakeIsIdempotent(t *testing.T) {
	e := NewEngine()
	resumes := 0
	sleeper := e.Spawn("sleeper", func(p *Proc) {
		p.Suspend()
		resumes++
		p.Sleep(100) // stay alive so a stray second resume would be visible
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(1)
		e.Wake(sleeper)
		e.Wake(sleeper) // duplicate at the same instant
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if resumes != 1 {
		t.Fatalf("resumes = %d, want 1", resumes)
	}
}

func TestWakeFinishedProcIsNoop(t *testing.T) {
	e := NewEngine()
	done := e.Spawn("quick", func(p *Proc) {})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(1)
		e.Wake(done) // must not hang or panic
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
}

// A body panic surfaces through Engine.Err with the proc's name and the
// panic value, and finishes the proc, which ends its coroutine.
func TestProcPanicSurfacesAsError(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	p := e.Spawn("bad", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	err := e.RunAll()
	if err == nil || !strings.Contains(err.Error(), `"bad"`) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want the proc name and panic value", err)
	}
	if !p.Done() || e.LiveProcs() != 0 || !goroutinesSettleTo(before) {
		t.Fatalf("done %v, live %d, %d goroutines (want true, 0, %d)", p.Done(), e.LiveProcs(), runtime.NumGoroutine(), before)
	}
}

func TestManyProcsStressDeterminism(t *testing.T) {
	run := func(seed int64) []float64 {
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		var finish []float64
		for i := 0; i < 100; i++ {
			n := 1 + rng.Intn(5)
			d := 0.1 + rng.Float64()
			e.Spawn("p", func(p *Proc) {
				for j := 0; j < n; j++ {
					p.Sleep(d)
				}
				finish = append(finish, p.Now())
			})
		}
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		return finish
	}
	a := run(42)
	b := run(42)
	if len(a) != 100 || len(b) != 100 {
		t.Fatalf("lengths %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic finish times at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if !sort.Float64sAreSorted(append([]float64(nil), a...)) {
		// finish times are appended in completion order, so they must be sorted
		t.Fatal("finish order not monotone in time")
	}
}

// TestAtRelativeToAdvancedClock: an event armed d after Now, once Run has
// moved the clock to its limit, fires at that limit plus d.
func TestAtRelativeToAdvancedClock(t *testing.T) {
	e := NewEngine()
	e.Run(2)
	var at float64
	e.At(e.Now()+3, func() { at = e.Now() })
	e.RunAll()
	if at != 5 {
		t.Fatalf("event fired at %v, want 5", at)
	}
}

func TestNestedSpawnFromProc(t *testing.T) {
	e := NewEngine()
	var childAt float64
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(2)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(3)
			childAt = c.Now()
		})
		p.Sleep(10)
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if childAt != 5 {
		t.Fatalf("child finished at %v, want 5", childAt)
	}
}

func BenchmarkEventThroughput(b *testing.B) {
	// Measures raw event scheduling/dispatch cost.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < 10000 {
				e.At(e.Now()+1, tick)
			}
		}
		e.At(e.Now()+1, tick)
		if err := e.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProcessSwitch(b *testing.B) {
	// Cost of a full park/resume round trip per simulated process step.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		e.Spawn("p", func(p *Proc) {
			for j := 0; j < 1000; j++ {
				p.Sleep(1)
			}
		})
		if err := e.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// Kill ends a process wherever it is parked — never started, suspended,
// asleep — runs its deferred calls and nothing else of its body, and
// leaves queued resumes for it as no-ops.
func TestKillEndsParkedProcs(t *testing.T) {
	e := NewEngine()
	var deferred, after int
	body := func(block func(p *Proc)) func(p *Proc) {
		return func(p *Proc) {
			defer func() { deferred++ }()
			block(p)
			after++
		}
	}
	unstarted := e.SpawnAt(10, "unstarted", body(func(p *Proc) {}))
	suspended := e.Spawn("suspended", body(func(p *Proc) { p.Suspend() }))
	asleep := e.Spawn("asleep", body(func(p *Proc) { p.Sleep(10) }))
	finished := e.Spawn("finished", func(p *Proc) {})
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	if e.LiveProcs() != 3 {
		t.Fatalf("live procs %d, want 3", e.LiveProcs())
	}
	for _, p := range []*Proc{unstarted, suspended, asleep, finished} {
		e.Kill(p)
	}
	if e.LiveProcs() != 0 || !unstarted.Done() || !suspended.Done() || !asleep.Done() {
		t.Fatalf("live procs %d after Kill", e.LiveProcs())
	}
	// The unstarted proc never reached its body, so only two defers ran.
	if deferred != 2 || after != 0 {
		t.Fatalf("deferred %d (want 2), body continued %d times (want 0)", deferred, after)
	}
	e.Wake(suspended)
	if err := e.RunAll(); err != nil { // the queued resumes at t=10 must no-op
		t.Fatal(err)
	}
	if after != 0 {
		t.Fatal("a killed proc resumed")
	}
}
