package fault

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"tango/internal/container"
	"tango/internal/sim"
	"tango/internal/trace"
	"tango/internal/workload"
)

// armPerEvent is Arm as it was before the plan became one calendar: one
// AtCall per plan event, each holding its own queue slot from the start.
func (in *Injector) armPerEvent() {
	in.armed = true
	eng := in.node.Engine()
	timers := make([]timer, len(in.plan.Events))
	for i, e := range in.plan.Sorted() {
		t := &timers[i]
		*t = timer{in: in, id: i, e: e}
		eng.AtCall(e.At, t)
	}
}

// armedRun arms a generated plan on a node with two interferers and a
// reader on the faulted device, runs it, and renders what it did: every
// trace line, the engine's event count and clock, and the device's
// bytes and busy time to the bit.
func armedRun(t *testing.T, seed int64, perEvent bool) []string {
	t.Helper()
	node := testNode(t)
	hdd := node.Device("hdd")
	handles := workload.LaunchNoiseSetControlled(node, hdd, workload.PaperNoiseSet()[:2])
	failed := 0
	node.MustLaunch("analytics", func(c *container.Container, p *sim.Proc) {
		for p.Now() < 400 {
			if _, err := hdd.TryReadCancel(p, c.Cgroup(), 16*mb, nil, 0); err != nil {
				failed++
			}
			p.Sleep(2)
		}
	})
	plan, err := Generate(seed, GenerateOptions{
		Horizon: 400, Device: "hdd", Cgroup: "analytics",
		Interferers: []string{"noise1", "noise2"}, Events: 3 + int(seed%10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if seed%3 == 0 { // same-instant events keep their plan order
		plan.Events = append(plan.Events, plan.Events[0], plan.Events[1])
	}
	rec := trace.New(256)
	in := NewInjector(node, rec, plan)
	in.RegisterNoise(handles)
	if perEvent {
		in.armPerEvent()
	} else if err := in.Arm(); err != nil {
		t.Fatal(err)
	}
	if err := node.Engine().Run(500); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ev := range rec.Events() {
		out = append(out, fmt.Sprintf("%x %s %s %s", math.Float64bits(ev.T), ev.Source, ev.Kind, ev.Msg()))
	}
	eng := node.Engine()
	return append(out, fmt.Sprintf("scheduled=%d now=%x failed=%d bytes=%x busy=%x injected=%d cleared=%d skipped=%d",
		eng.Scheduled(), math.Float64bits(eng.Now()), failed, math.Float64bits(hdd.TotalBytes()),
		math.Float64bits(hdd.BusyTime()), in.Injected(), in.Cleared(), in.Skipped()))
}

// The plan's timers armed as one calendar fire in the order, at the
// instants and with the sequence numbers one AtCall per event gave them:
// random generated plans leave the same trace, event count and device
// state either way.
func TestArmMatchesPerEventTimers(t *testing.T) {
	injected := 0
	for seed := int64(1); seed <= 40; seed++ {
		got, want := armedRun(t, seed, false), armedRun(t, seed, true)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: calendar arm\n%v\nper-event arm\n%v", seed, got, want)
		}
		injected += len(got)
	}
	if injected < 40*4 {
		t.Fatalf("%d trace lines over 40 plans: the plans did not fire", injected)
	}
}
