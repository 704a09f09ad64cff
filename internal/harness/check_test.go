package harness

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"tango/internal/core"
	"tango/internal/fleet"
	"tango/internal/trace"
)

// A check is one invariant the checker holds every run to. A check that
// needs state no event or accessor of a run gives, or that its package's
// test already holds for every input, stays there: the cgroup weight
// range in blkio's TestClampWeight and TestClampWeightProperty (every
// write goes through ClampWeight), Σowed = ΣlentOut and the borrow/repay
// ledger rebuilt from its events in tokenctl's TestLedgerInvariants (no
// spec puts two buckets on one traced controller), grants within the
// documented ulp in objstore's tests, the cache's Reserve/Release balance
// in cache's, and session ownership in fleet's. Fleet steps emit no
// events, so here a fleet gets determinism, no panic and its totals only.
type check int

const (
	checkBound  check = iota // no step retrieves below the -bound rung
	checkProcs               // no process outlives the run
	checkCache               // the cache held no more than its capacity when it closed
	checkStaged              // every tier's staged bytes are exactly 0 once the session has finished
	checkFaults              // the trace clears every fault window that closed, and counts as the injector does
	nChecks
)

var checkNames = [nChecks]string{"bound", "procs", "cache", "staged", "faults"}

// outcome is one run of an argument list: what it simulated (every step's
// numbers for one node, the totals line for a fleet), a traced fleet's
// barrier trace, what the checker found wrong, and which checks had
// something to check. A run that fails before it simulates anything (a
// plan the scenario cannot arm, a fleet.New error) sets err, and its error
// is the one finding.
type outcome struct {
	sim, trace string
	err        error
	stats      []core.StepStats
	findings   []string
	checked    [nChecks]bool
}

// simulate is the one run path of the randomized tests: it parses args
// and runs them on one node (Spec.Run's path) or as a fleet, traced or
// not, under the checker. ok is false for an invalid spec or one over the
// caps. A panic is a finding.
func simulate(args []string, traced bool) (out outcome, ok bool) {
	spec, err := ParseSpec(args)
	if err != nil || overCaps(spec) {
		return out, false
	}
	ck := &checker{out: &out, open: map[int]float64{}}
	defer func() {
		if r := recover(); r != nil {
			ck.fail(nChecks, "panic: %v", r)
			ok = true
		}
	}()
	var rec *trace.Recorder
	if traced {
		rec = trace.New(4096)
		rec.Subscribe(ck.event)
	}
	if spec.Fleet() {
		c, err := fleet.New(spec.FleetConfig(rec))
		if err != nil {
			out.err = err
			ck.fail(nChecks, "fleet.New: %v", err)
			return out, true
		}
		rep, err := c.Run()
		if err != nil {
			ck.fail(nChecks, "fleet run: %v", err)
			return out, true
		}
		out.sim, out.trace = rep.TotalsLine(), traceText(rec)
		return out, true
	}
	run, err := spec.Run(rec, io.Discard)
	if err != nil {
		out.err = err
		ck.fail(nChecks, "run: %v", err)
		return out, true
	}
	out.stats = run.Session.Stats()
	out.sim = fmt.Sprint(stepBits(out.stats))
	ck.finished(spec, run, traced)
	return out, true
}

// stepBits is every step's numbers, bit for bit.
func stepBits(stats []core.StepStats) []uint64 {
	var bits []uint64
	for _, st := range stats {
		bits = append(bits, math.Float64bits(st.Start), math.Float64bits(st.IOTime),
			math.Float64bits(st.Bytes), math.Float64bits(st.Predicted), math.Float64bits(st.Degree),
			uint64(st.Cursor), uint64(st.Retries))
	}
	return bits
}

// traceText formats every recorded event, so an event whose arguments do
// not fit its format panics here.
func traceText(rec *trace.Recorder) string {
	var b strings.Builder
	if _, err := rec.WriteTo(&b); err != nil {
		panic(err)
	}
	return b.String()
}

// checker holds one run to the checks: a traced run's recorder tells it
// of every event, and finished reads the run's accessors once the engine
// has stopped.
type checker struct {
	out               *outcome
	failed            [nChecks + 1]bool // the last slot is the run's own failure
	open              map[int]float64   // fault windows the trace opened: id → when it closes
	injected, cleared int
}

// fail records the first finding of check c.
func (ck *checker) fail(c check, format string, args ...any) {
	if !ck.failed[c] {
		ck.failed[c] = true
		ck.out.findings = append(ck.out.findings, fmt.Sprintf(format, args...))
	}
}

// event rebuilds the fault windows from the injector's KindFault events.
func (ck *checker) event(ev trace.Event) {
	if ev.Kind != trace.KindFault {
		return
	}
	msg := ev.Msg()
	var id int
	if _, err := fmt.Sscanf(msg, "inject id=%d", &id); err == nil {
		ck.injected++
		ck.open[id] = math.Inf(1) // interferer churn has no window
		if _, dur, ok := strings.Cut(msg, " dur="); ok {
			d, err := strconv.ParseFloat(dur, 64)
			if err != nil {
				panic(err)
			}
			ck.open[id] = ev.T + d
		}
	} else if _, err := fmt.Sscanf(msg, "clear id=%d", &id); err == nil {
		ck.cleared++
		if _, ok := ck.open[id]; !ok {
			ck.fail(checkFaults, "clear id=%d at %gs with no open inject", id, ev.T)
		}
		delete(ck.open, id)
	}
}

// finished checks a single-node run once its engine has stopped.
func (ck *checker) finished(spec *Spec, run *SpecRun, traced bool) {
	checked := &ck.out.checked
	if spec.Bound > 0 {
		checked[checkBound] = true
		if v := boundViolations(ck.out.stats, rung(run.Hierarchy, spec.Bound)); v > 0 {
			ck.fail(checkBound, "%d steps below the -bound %v rung", v, spec.Bound)
		}
	}
	eng := run.Scenario.Node.Engine()
	checked[checkProcs] = true
	if n := eng.LiveProcs(); n != 0 {
		ck.fail(checkProcs, "%d procs live after the run", n)
	}
	if c := run.Session.Cache(); c != nil {
		// Close empties Used; what it held then is what it staged and kept.
		checked[checkCache] = true
		if st := c.Stats(); st.StagedBytes-st.EvictedBytes > c.Capacity()*(1+1e-9) {
			ck.fail(checkCache, "cache held %.0f B over its %.0f B capacity", st.StagedBytes-st.EvictedBytes, c.Capacity())
		}
	}
	checked[checkStaged] = true
	for _, d := range run.Scenario.Node.Tiers() {
		if u := d.Used(); u != 0 {
			ck.fail(checkStaged, "%s holds %g staged bytes after the session", d.Name(), u)
		}
	}
	if in := run.Scenario.Injector; traced && in != nil {
		checked[checkFaults] = in.Injected() > 0
		for id, closes := range ck.open {
			if closes < eng.Now() {
				ck.fail(checkFaults, "fault id=%d closed at %gs but was never cleared", id, closes)
			}
		}
		if ck.injected != in.Injected() || ck.cleared != in.Cleared() {
			ck.fail(checkFaults, "trace has %d injects and %d clears, the injector counts %d and %d",
				ck.injected, ck.cleared, in.Injected(), in.Cleared())
		}
	}
}

// tally counts, per check, the runs in which it had something to check.
type tally [nChecks]int

func (n *tally) add(o outcome) {
	for c, ok := range o.checked {
		if ok {
			n[c]++
		}
	}
}

// require fails a full (non -short) test in which some check never had
// anything to check: a check that sees nothing shows nothing.
func (n *tally) require(t *testing.T) {
	t.Helper()
	for c, k := range n {
		if k == 0 && !testing.Short() {
			t.Errorf("check %q had nothing to check in any run", checkNames[c])
		}
	}
	t.Logf("runs per check: %v", *n)
}

// report fails t with a finding and the tangosim command that reproduces it.
func report(t *testing.T, finding string, args []string) {
	t.Helper()
	var quoted []string
	for _, a := range args {
		if strings.ContainsAny(a, "; ") {
			a = "'" + a + "'"
		}
		quoted = append(quoted, a)
	}
	t.Errorf("%s\n\treproduce: tangosim %s", finding, strings.Join(quoted, " "))
}
