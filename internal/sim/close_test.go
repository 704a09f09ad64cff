package sim_test

import (
	"runtime"
	"testing"
	"time"

	"tango/internal/blkio"
	"tango/internal/device"
	"tango/internal/sim"
)

// Close ends every live process wherever it is parked — asleep, suspended
// inside a device transfer that will never complete, not yet started —
// runs their deferred calls, ends every coroutine, and is a no-op the
// second time.
func TestEngineCloseEndsParkedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	e := sim.NewEngine()
	d := device.New(e, device.Params{Name: "flat", PeakBandwidth: 100, MinEfficiency: 1})
	cg := blkio.NewCgroup("reader")
	var deferred, after int
	body := func(block func(p *sim.Proc)) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			defer func() { deferred++ }()
			block(p)
			after++
		}
	}
	e.Spawn("asleep", body(func(p *sim.Proc) { p.Sleep(1000) }))
	e.Spawn("in-transfer", body(func(p *sim.Proc) { d.Read(p, cg, 1e6) }))
	e.SpawnAt(1000, "unstarted", body(func(p *sim.Proc) {}))
	e.Spawn("finished", func(p *sim.Proc) {})
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	if e.LiveProcs() != 3 {
		t.Fatalf("live procs %d before Close, want 3", e.LiveProcs())
	}
	e.Close()
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs %d after Close", e.LiveProcs())
	}
	for i := 0; i < 200 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before, %d after Close", before, n)
	}
	// The unstarted proc never reached its body, so only two defers ran.
	if deferred != 2 || after != 0 {
		t.Fatalf("deferred %d (want 2), body continued %d times (want 0)", deferred, after)
	}
	e.Close()
	if e.LiveProcs() != 0 || deferred != 2 {
		t.Fatalf("second Close did something: live %d, deferred %d", e.LiveProcs(), deferred)
	}
}
