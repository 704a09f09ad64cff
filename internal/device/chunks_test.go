package device

import (
	"errors"
	"fmt"
	"testing"

	"tango/internal/blkio"
	"tango/internal/sim"
)

// A miss on the free chain takes its flow from the device's slab: n flows
// in flight at once on a fresh device cost chunks of them plus the
// log-many growth steps of the active set, not one object per flow. The
// engine is warmed first, so its events reuse the structs its heap kept.
func TestFlowsComeFromChunks(t *testing.T) {
	const n = 1024
	eng := sim.NewEngine()
	cg := blkio.NewCgroup("cg")
	ended := 0
	done := sinkCompletion{&ended}
	toks := make([]Token, n)
	batch := func() {
		d := New(eng, flatParams(1<<30))
		for i := range toks {
			if ended, _ := d.Begin(cg, 1<<20, i%2 == 1, false, &toks[i], 0, done); ended {
				t.Fatal("a flow with bytes to move ended at issue")
			}
		}
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	batch()
	allocs := testing.AllocsPerRun(5, batch)
	if allocs > n/8 || ended != 7*n {
		t.Fatalf("%d flows in flight cost %v objects (want <= %d), ended %d (want %d)", n, allocs, n/8, ended, 7*n)
	}
}

// A device keeps its flow and group tables inline while two flows share
// it: Begin→finish cycles of two concurrent flows in two cgroups allocate
// nothing once the device, its free chain and the engine are warm, and the
// tables are still the inline arrays. Grown from nil, they cost each fresh
// device four objects by its second flow, which a fleet pays per device.
func TestTwoFlowsAllocateNothing(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, flatParams(1<<30))
	cgs := [2]*blkio.Cgroup{blkio.NewCgroup("a"), blkio.NewCgroup("b")}
	ended := 0
	done := sinkCompletion{&ended}
	var toks [2]Token
	cycle := func() {
		for i := range toks {
			if ended, _ := d.Begin(cgs[i], 1<<20, i == 1, false, &toks[i], 0, done); ended {
				t.Fatal("a flow with bytes to move ended at issue")
			}
		}
		if d.ActiveFlows() != 2 {
			t.Fatalf("%d flows in flight, want 2", d.ActiveFlows())
		}
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 || ended != 2*101 {
		t.Fatalf("two concurrent flows cost %v objects a cycle (want 0), ended %d (want %d)", n, ended, 2*101)
	}
	if &d.flows[:1][0] != &d.flowBuf[0] || &d.groups[:1][0] != &d.groupBuf[0] {
		t.Fatal("the tables left the device's inline arrays")
	}
}

var errSink string

// The errors a failed read and a cancel return read exactly as the
// fmt.Errorf("device %q: %w") they replace, still wrap their sentinel, and
// spell it without allocating.
func TestWrappedErrorsMatchErrorf(t *testing.T) {
	for _, name := range []string{"hdd", "", `a "quoted" \ name`, "ünï\tcødé", "\x00\xff"} {
		eng := sim.NewEngine()
		d := New(eng, Params{Name: name, PeakBandwidth: 100, MinEfficiency: 1, RequestLatency: 1})
		cg := blkio.NewCgroup("a")
		d.SetReadError(true)
		var readErr, cancelErr error
		eng.Spawn("failed", func(p *sim.Proc) { _, readErr = d.TryReadCancel(p, cg, 10, nil, 0) })
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		d.SetReadError(false)
		var tok Token
		eng.Spawn("canceled", func(p *sim.Proc) { _, cancelErr = d.TryReadCancel(p, cg, 1000, &tok, eng.Now()+2) })
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			got, sentinel error
		}{{readErr, ErrRead}, {cancelErr, ErrCanceled}} {
			want := fmt.Errorf("device %q: %w", name, c.sentinel)
			if c.got == nil || c.got.Error() != want.Error() || !errors.Is(c.got, c.sentinel) || errors.Unwrap(c.got) != c.sentinel {
				t.Fatalf("device %q: got %v, want %v wrapping %v", name, c.got, want, c.sentinel)
			}
			if n := testing.AllocsPerRun(100, func() { errSink = c.got.Error() }); n != 0 {
				t.Fatalf("device %q: %v.Error() allocates %v objects", name, c.got, n)
			}
		}
	}
}
