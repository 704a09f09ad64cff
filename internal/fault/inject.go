package fault

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"tango/internal/blkio"
	"tango/internal/container"
	"tango/internal/device"
	"tango/internal/sim"
	"tango/internal/trace"
	"tango/internal/workload"
)

// Injector arms a Plan against one node: every event is scheduled on the
// node's engine, applied in sim context, and recorded (injection and
// clearance) through the trace recorder with trace.KindFault events.
//
// Overlapping device faults compose: the injected bandwidth factor is
// the minimum of the active collapses, extra latency is the sum of the
// active spikes, and read errors stay active while any read-error window
// is open. Cgroup weight-write faults are reference-counted the same
// way. Throttle resets save and restore the previous limits and must not
// overlap on one cgroup.
//
// An Injector belongs to one engine; like the rest of the sim stack it
// is deterministic — arming the same plan on an identically-seeded node
// yields a byte-identical event stream.
type Injector struct {
	node    *container.Node
	rec     *trace.Recorder
	plan    *Plan
	handles map[string]*workload.Handle
	armed   bool
	cal     sim.Calendar // the plan's timers: one event slot for them all

	active     []deviceFault  // open device windows, in fire order
	weightFail map[string]int // cgroup name -> open windows
	injected   int
	cleared    int
	skipped    int
}

type deviceFault struct {
	id       int
	dev      string
	kind     Kind
	bwFactor float64
	latency  float64
}

// timer is one plan event's slot in Arm's slab, and the sim.Callback that
// fires its injection and then its clearance.
type timer struct {
	in           *Injector
	id           int
	e            Event
	clearing     bool          // injected: the next fire is the clearance
	cg           *blkio.Cgroup // resolved at injection
	prevR, prevW float64       // the throttles a ThrottleReset restores
}

// NewInjector binds a validated plan to a node. The recorder may be nil
// (faults still inject, nothing is recorded). It panics on an invalid
// plan — plans are validated at parse/construction time, so this is a
// programmer error.
func NewInjector(node *container.Node, rec *trace.Recorder, plan *Plan) *Injector {
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	return &Injector{
		node:       node,
		rec:        rec,
		plan:       plan,
		handles:    map[string]*workload.Handle{},
		weightFail: map[string]int{},
	}
}

// RegisterNoise makes already-running interferers addressable by Leave
// and PeriodChange events. Interferers the injector launches itself
// (Join) are registered automatically.
func (in *Injector) RegisterNoise(handles map[string]*workload.Handle) {
	for name, h := range handles {
		in.handles[name] = h
	}
}

// Arm schedules every plan event on the node's engine, as one calendar
// (a clearance is armed on its own once its fault is injected). Device
// targets are validated eagerly; cgroup and interferer targets are
// resolved at fire time (sessions attach after arming), and a
// still-missing target skips the event with a recorded "skip" fault
// event. Arm may be called once.
func (in *Injector) Arm() error {
	if in.armed {
		return fmt.Errorf("fault: injector already armed")
	}
	for _, e := range in.plan.Events {
		if e.Kind.DeviceFault() || e.Kind == Join {
			dev := in.targetDevice(e)
			if in.node.Device(dev) == nil {
				return fmt.Errorf("fault: %s targets unknown device %q", e.Kind, dev)
			}
		}
	}
	in.armed = true
	eng := in.node.Engine()
	timers := make([]timer, len(in.plan.Events))
	in.cal.Reset(eng, len(timers))
	for i, e := range in.plan.Sorted() {
		t := &timers[i]
		*t = timer{in: in, id: i, e: e}
		in.cal.Add(e.At, t)
	}
	in.cal.Arm()
	return nil
}

// targetDevice returns the device an event touches (for Join, the device
// the interferer writes to: the slowest tier).
func (in *Injector) targetDevice(e Event) string {
	if e.Kind == Join {
		tiers := in.node.Tiers()
		return tiers[len(tiers)-1].Name()
	}
	return e.Target
}

// Injected, Cleared, and Skipped report event counts so far.
func (in *Injector) Injected() int { return in.injected }
func (in *Injector) Cleared() int  { return in.cleared }
func (in *Injector) Skipped() int  { return in.skipped }

// record counts an event under *n and describes it: format takes the id,
// kind and target, then vals (at most two).
func (in *Injector) record(n *int, t *timer, format string, vals ...float64) {
	*n++
	var v [2]float64
	copy(v[:], vals)
	args := [5]any{t.id, t.e.Kind.String(), t.e.Target, v[0], v[1]}
	in.rec.Emit(in.node.Engine().Now(), "injector", trace.KindFault, format, args[:3+len(vals)]...)
}

// Fire applies the event in sim context, or clears it the second time.
func (t *timer) Fire() {
	in, e := t.in, &t.e
	switch {
	case t.clearing:
		in.clear(t)
	case e.Kind.DeviceFault():
		in.fireDevice(t)
	case e.Kind == WeightFail, e.Kind == ThrottleReset:
		in.fireCgroup(t)
	case e.Kind == Join:
		in.fireJoin(t)
	case e.Kind == NodeKill:
		// Node kills are cluster-level: internal/fleet interprets them at
		// epoch barriers. A single-node injector has no fleet to act on.
		in.record(&in.skipped, t, "skip id=%d kind=%s node=%s (no cluster)")
	default: // Leave, PeriodChange
		in.fireChurn(t)
	}
}

func (in *Injector) fireDevice(t *timer) {
	e := &t.e
	df := deviceFault{id: t.id, dev: e.Target, kind: e.Kind, bwFactor: 1}
	switch e.Kind {
	case BWCollapse:
		df.bwFactor = e.Factor
	case LatencySpike:
		df.latency = e.Factor
	case Stuck:
		df.bwFactor = 0
	}
	in.active = append(in.active, df)
	in.applyDeviceState(in.node.Device(e.Target))
	in.record(&in.injected, t, "inject id=%d kind=%s dev=%s factor=%g dur=%g", e.Factor, e.Duration)
	t.clearAfter()
}

// clearAfter arms the clearance of the fault t just injected.
func (t *timer) clearAfter() {
	t.clearing = true
	eng := t.in.node.Engine()
	eng.AtCall(eng.Now()+t.e.Duration, t)
}

// clear closes the window of a device or cgroup fault.
func (in *Injector) clear(t *timer) {
	e, format := &t.e, "clear id=%d kind=%s cg=%s"
	switch e.Kind {
	case WeightFail:
		in.weightFail[e.Target]--
		if in.weightFail[e.Target] == 0 {
			t.cg.SetWeightFailing(false)
		}
	case ThrottleReset:
		t.cg.SetReadBpsLimit(t.prevR)
		t.cg.SetWriteBpsLimit(t.prevW)
	default:
		format = "clear id=%d kind=%s dev=%s"
		for i, f := range in.active {
			if f.id == t.id {
				in.active = slices.Delete(in.active, i, i+1)
				break
			}
		}
		in.applyDeviceState(in.node.Device(e.Target))
	}
	in.record(&in.cleared, t, format)
}

// applyDeviceState recomputes the composed fault state of one device
// from its open windows, summing their latencies in fire order.
func (in *Injector) applyDeviceState(dev *device.Device) {
	bw, lat, readErr := 1.0, 0.0, false
	for _, f := range in.active {
		if f.dev != dev.Name() {
			continue
		}
		if f.bwFactor < bw {
			bw = f.bwFactor
		}
		lat += f.latency
		if f.kind == ReadError {
			readErr = true
		}
	}
	dev.SetReadError(readErr)
	if bw == 1 && lat == 0 {
		dev.ClearFault()
	} else {
		dev.SetFault(bw, lat)
	}
}

// fireCgroup injects a WeightFail or ThrottleReset. The cgroup is resolved
// at fire time; one that does not exist (the session it names was never
// launched) is a recorded skip.
func (in *Injector) fireCgroup(t *timer) {
	e := &t.e
	if t.cg = in.node.Cgroups().Lookup(e.Target); t.cg == nil {
		in.record(&in.skipped, t, "skip id=%d kind=%s cg=%s (no such cgroup)")
		return
	}
	if e.Kind == WeightFail {
		in.weightFail[e.Target]++
		t.cg.SetWeightFailing(true)
		in.record(&in.injected, t, "inject id=%d kind=%s cg=%s dur=%g", e.Duration)
	} else {
		t.prevR, t.prevW = t.cg.ReadBpsLimit(), t.cg.WriteBpsLimit()
		t.cg.SetReadBpsLimit(e.Factor * mb)
		t.cg.SetWriteBpsLimit(0)
		in.record(&in.injected, t, "inject id=%d kind=%s cg=%s mb=%g dur=%g", e.Factor, e.Duration)
	}
	t.clearAfter()
}

// fireJoin launches a Join's interferer unless one by that name already
// runs. NewInjector validated the join's Noise with the plan, so the launch
// builds no error value: it runs inside Fire, which is on the hot path.
func (in *Injector) fireJoin(t *timer) {
	e := &t.e
	if _, ok := in.handles[e.Target]; ok || in.node.Container(e.Target) != nil {
		in.record(&in.skipped, t, "skip id=%d kind=%s name=%s (already running)")
		return
	}
	_, h := workload.LaunchValidNoise(in.node, in.node.Device(in.targetDevice(*e)), e.Noise)
	in.handles[e.Target] = h
	in.record(&in.injected, t, "inject id=%d kind=%s name=%s period=%g mb=%g", e.Noise.Period, e.Noise.CheckpointBytes/mb)
}

func (in *Injector) fireChurn(t *timer) {
	e := &t.e
	h := in.handles[e.Target]
	switch {
	case h == nil:
		in.record(&in.skipped, t, "skip id=%d kind=%s name=%s (no such interferer)")
	case e.Kind == Leave:
		h.Stop()
		in.record(&in.injected, t, "inject id=%d kind=%s name=%s")
	case e.Kind == PeriodChange:
		h.SetPeriod(e.Factor)
		in.record(&in.injected, t, "inject id=%d kind=%s name=%s period=%g", e.Factor)
	}
}

// Unpaired scans a trace for injected faults with no recovery action at
// or after the injection time, returning the unpaired fault events. A
// recovery action is a trace.KindRecover or trace.KindRefit event (a
// staging degrade, a forecast refit), or any resil control-plane event —
// KindAttempt/KindBreaker/KindHedge/KindBudget — since each of those
// records an explicit per-fault decision. The chaos and resil
// experiments and their tests use this to enforce the "every injected
// fault is answered by a recorded recovery" contract.
func Unpaired(events []trace.Event) []trace.Event {
	last := math.Inf(-1) // a fault at or before the last recovery is paired
	for _, r := range events {
		if recoveryKind(r.Kind) {
			last = max(last, r.T)
		}
	}
	var out []trace.Event
	for _, f := range events {
		if f.Kind == trace.KindFault && strings.HasPrefix(f.Format, "inject") && f.T > last {
			out = append(out, f)
		}
	}
	return out
}

// recoveryKind reports whether a trace kind records a recovery decision.
func recoveryKind(kind string) bool {
	switch kind {
	case trace.KindRecover, trace.KindRefit,
		trace.KindAttempt, trace.KindBreaker, trace.KindHedge, trace.KindBudget:
		return true
	}
	return false
}
