// Package fault is a deterministic fault-injection subsystem for the
// simulated storage stack. A Plan is a virtual-time schedule of
// injectable events — device degradations (bandwidth collapse, latency
// spikes, stuck devices, transient read errors), cgroup faults
// (weight-write failures, throttle resets), and workload churn
// (interferers joining, leaving, or changing period mid-run) — and an
// Injector arms the plan against a node, recording every injection and
// clearance through internal/trace.
//
// The paper's premise is that ephemeral-storage interference is dynamic:
// competitors join, leave, and misbehave while the analytics runs. The
// fault layer makes that concrete and repeatable — the same (seed, plan)
// pair always produces byte-identical runs, so graceful degradation is a
// regression-testable property rather than an assumption. Recovery lives
// in the layers themselves: staging retries reads with virtual-time
// backoff and degrades augmentation before violating an error bound,
// core detects estimator regime changes and refits, and blkio/
// coordinator re-apply failed weight writes (see docs/faults.md).
package fault

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"tango/internal/workload"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// BWCollapse scales the target device's delivered bandwidth by
	// Factor for Duration seconds (a competitor saturating the
	// controller, thermal throttling, RAID rebuild).
	BWCollapse Kind = iota
	// LatencySpike adds Factor seconds of per-request latency on the
	// target device for Duration seconds.
	LatencySpike
	// ReadError makes fallible reads (device.TryReadCancel) on the target
	// device fail for Duration seconds (transient media errors on the
	// capacity tier).
	ReadError
	// Stuck stops all service on the target device for Duration seconds:
	// in-flight flows stall and resume when the fault clears.
	Stuck
	// WeightFail makes blkio weight writes on the target cgroup fail for
	// Duration seconds (cgroupfs rejecting the write).
	WeightFail
	// ThrottleReset clobbers the target cgroup's read throttle to Factor
	// MB/s (0 = removes all throttles) for Duration seconds, then
	// restores the previous limits.
	ThrottleReset
	// Join launches a new interfering container (Noise) at At.
	Join
	// Leave stops the named interferer after its in-flight checkpoint.
	Leave
	// PeriodChange sets the named interferer's checkpoint period to
	// Factor seconds (its producing simulation was rescaled).
	PeriodChange
	// NodeKill takes a whole fleet node out of service for Duration
	// seconds: its sessions are rebalanced to surviving nodes and its L2
	// contents are lost (ephemeral storage does not outlive the node).
	// Interpreted by the cluster coordinator (internal/fleet); a
	// single-node Injector records a skip.
	NodeKill
)

// kindRow is a kind's spelling in the spec grammar: its name, the key
// naming its target, the key of its Factor ("" for none), whether it has
// a clearance event after Duration, and whether it targets a device
// (internal/fleet arms only these on each node's injector and interprets
// NodeKill itself).
type kindRow struct {
	name, target, factor string
	windowed, device     bool
}

var kinds = [...]kindRow{
	BWCollapse:    {"bw-collapse", "dev", "factor", true, true},
	LatencySpike:  {"latency", "dev", "add", true, true},
	ReadError:     {"read-err", "dev", "", true, true},
	Stuck:         {"stuck", "dev", "", true, true},
	WeightFail:    {"weight-fail", "cg", "", true, false},
	ThrottleReset: {"throttle-reset", "cg", "mb", true, false},
	Join:          {"join", "name", "", false, false},
	Leave:         {"leave", "name", "", false, false},
	PeriodChange:  {"period", "name", "period", false, false},
	NodeKill:      {"node-kill", "node", "", true, false},
}

// row is k's row of kinds. A value no kind has is "Kind(?)", targeted by
// name=: fault timers fire on the hot path, where formatting it would
// allocate.
func (k Kind) row() kindRow {
	if k < 0 || int(k) >= len(kinds) {
		return kindRow{name: "Kind(?)", target: "name"}
	}
	return kinds[k]
}

// String returns the kind's spec-grammar name.
func (k Kind) String() string { return k.row().name }

// windowed reports whether the kind has a clearance event after Duration.
func (k Kind) windowed() bool { return k.row().windowed }

// DeviceFault reports whether the kind targets a device.
func (k Kind) DeviceFault() bool { return k.row().device }

// Event is one scheduled fault.
type Event struct {
	At   float64 // virtual time of injection (seconds)
	Kind Kind
	// Target names the faulted object: a device (BWCollapse,
	// LatencySpike, ReadError, Stuck), a cgroup (WeightFail,
	// ThrottleReset), a fleet node (NodeKill), or an interferer (Join,
	// Leave, PeriodChange).
	Target string
	// Factor is the kind-specific magnitude: bandwidth fraction
	// (BWCollapse), extra latency seconds (LatencySpike), read-throttle
	// MB/s (ThrottleReset, 0 = clear), or new period seconds
	// (PeriodChange).
	Factor float64
	// Duration is the fault window in seconds (windowed kinds only).
	Duration float64
	// Noise describes the joining interferer (Join only); Noise.Name
	// must equal Target.
	Noise workload.Noise
}

// validate reports e's first problem (Plan.Validate names the event).
func (e Event) validate() error {
	switch {
	case !(e.At >= 0) || math.IsInf(e.At, 1):
		return fmt.Errorf("time %v is not finite and >= 0", e.At)
	case e.Target == "":
		return fmt.Errorf("no target")
	case math.IsNaN(e.Factor) || math.IsInf(e.Factor, 0):
		return fmt.Errorf("factor %v is not finite", e.Factor)
	case math.IsNaN(e.Duration) || math.IsInf(e.Duration, 0):
		return fmt.Errorf("duration %v is not finite", e.Duration)
	case e.Kind.windowed() && !(e.Duration > 0):
		return fmt.Errorf("needs a positive duration, got %v", e.Duration)
	}
	switch e.Kind {
	case BWCollapse:
		if e.Factor < 0 || e.Factor > 1 {
			return fmt.Errorf("factor %v out of [0,1]", e.Factor)
		}
	case LatencySpike:
		if e.Factor <= 0 {
			return fmt.Errorf("needs a positive add, got %v", e.Factor)
		}
	case ThrottleReset:
		if e.Factor < 0 {
			return fmt.Errorf("MB/s %v must be >= 0", e.Factor)
		}
	case PeriodChange:
		if e.Factor <= 0 {
			return fmt.Errorf("needs a positive period, got %v", e.Factor)
		}
	case Join:
		if e.Noise.Name != e.Target {
			return fmt.Errorf("noise name %q != target", e.Noise.Name)
		}
		return e.Noise.Validate()
	}
	return nil
}

// Plan is a virtual-time schedule of fault events. Plans are immutable
// once armed; the same plan may be armed on any number of nodes (the
// chaos experiment arms one copy per policy run).
type Plan struct {
	Events []Event
}

// Validate checks every event and returns the first problem.
func (p *Plan) Validate() error {
	for _, e := range p.Events {
		if err := e.validate(); err != nil {
			return fmt.Errorf("fault: %s@%g on %q: %w", e.Kind, e.At, e.Target, err)
		}
	}
	return nil
}

// Sorted returns the events ordered by injection time (stable, so
// same-instant events keep their plan order).
func (p *Plan) Sorted() []Event {
	out := make([]Event, len(p.Events))
	copy(out, p.Events)
	slices.SortStableFunc(out, func(a, b Event) int { return cmp.Compare(a.At, b.At) })
	return out
}

// String renders the plan in the spec grammar accepted by ParsePlan.
func (p *Plan) String() string {
	var b strings.Builder
	for i, e := range p.Sorted() {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s@%g:", e.Kind, e.At)
		var params []string
		add := func(k string, v string) { params = append(params, k+"="+v) }
		row := e.Kind.row()
		add(row.target, e.Target)
		if row.factor != "" {
			add(row.factor, fmt.Sprintf("%g", e.Factor))
		}
		if e.Kind == Join {
			add("period", fmt.Sprintf("%g", e.Noise.Period))
			add("mb", fmt.Sprintf("%g", e.Noise.CheckpointBytes/mb))
			if e.Noise.Phase != 0 {
				add("phase", fmt.Sprintf("%g", e.Noise.Phase))
			}
			// Always: ParsePlan's defaults for an omitted jitter or seed are not 0.
			add("jitter", fmt.Sprintf("%g", e.Noise.Jitter))
			add("seed", fmt.Sprintf("%d", e.Noise.Seed))
		}
		if row.windowed {
			add("dur", fmt.Sprintf("%g", e.Duration))
		}
		b.WriteString(strings.Join(params, ","))
	}
	return b.String()
}

const mb = 1024 * 1024
