package harness

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// The explorer's caps, which FuzzSpec shares: a spec larger than these is
// skipped, never clamped.
func overCaps(s *Spec) bool {
	return s.GridN > 65 || s.Steps > 32 || s.Nodes > 8 || s.Sessions > 80
}

// pick draws one of vs.
func pick[T any](rng *rand.Rand, vs ...T) T { return vs[rng.Intn(len(vs))] }

// drawArgs draws a tangosim argument list within the caps, every flag a
// single "-name=value" word so a shrink can drop one at a time. Each
// optional flag is left at its default half the time. A fleet list draws
// 1–8 nodes and a plan of 1–3 node kills (some naming no node); a
// single-node list draws "auto" or a written plan of device, cgroup and
// interferer faults.
func drawArgs(rng *rand.Rand, fleetMode bool) []string {
	steps := 1 + rng.Intn(32)
	args := []string{fmt.Sprintf("-grid=%d", 3+rng.Intn(63)), fmt.Sprintf("-steps=%d", steps)}
	maybe := func(name string, v any) {
		if rng.Intn(2) == 0 {
			args = append(args, fmt.Sprintf("-%s=%v", name, v))
		}
	}
	maybe("app", pick(rng, "XGC", "GenASiS", "CFD", "cfd"))
	maybe("policy", pick(rng, "none", "storage", "app", "cross", "prefetch"))
	maybe("noise", rng.Intn(7))
	maybe("seed", 1+rng.Intn(4))
	maybe("bound", pick(rng, 0, 0.1, 0.01, 0.001, 0.0001))
	maybe("priority", pick(rng, 0, 1, 5, 10, 0.25, 40))
	maybe("dataset", pick(rng, 16, 512, 2048, 8192))
	maybe("cache", pick(rng, 0, 16, 512))
	maybe("control", pick(rng, "central", "tokens", "hybrid", "token"))
	maybe("prefetch", rng.Intn(2) == 0)
	maybe("resil", rng.Intn(2) == 0)
	maybe("hedge", rng.Intn(2) == 0)
	var events []string
	if fleetMode {
		nodes := 1 + rng.Intn(8)
		args = append(args, fmt.Sprintf("-nodes=%d", nodes), fmt.Sprintf("-objstore=%v", nodes == 1 || rng.Intn(2) == 0))
		maybe("sessions", rng.Intn(81))
		for range 1 + rng.Intn(3) {
			events = append(events, fmt.Sprintf("node-kill@%d:node=node%d,dur=%d", rng.Intn(480), rng.Intn(nodes+1), 60*(1+rng.Intn(4))))
		}
	} else {
		for range 1 + rng.Intn(3) {
			at, dur, dev := rng.Intn(60*steps), 1+rng.Intn(120), pick(rng, "hdd", "ssd")
			events = append(events, pick(rng,
				fmt.Sprintf("bw-collapse@%d:dev=%s,factor=0.2,dur=%d", at, dev, dur),
				fmt.Sprintf("latency@%d:dev=%s,add=0.05,dur=%d", at, dev, dur),
				fmt.Sprintf("read-err@%d:dev=%s,dur=%d", at, dev, dur),
				fmt.Sprintf("stuck@%d:dev=%s,dur=%d", at, dev, min(dur, 30)),
				fmt.Sprintf("weight-fail@%d:cg=XGC,dur=%d", at, dur),
				fmt.Sprintf("throttle-reset@%d:cg=XGC,mb=40,dur=%d", at, dur),
				fmt.Sprintf("leave@%d:name=noise1", at),
				fmt.Sprintf("period@%d:name=noise2,period=90", at),
				fmt.Sprintf("join@%d:name=extra,period=120,mb=256", at)))
		}
		events = []string{pick(rng, "auto", strings.Join(events, ";"))}
	}
	maybe("faults", strings.Join(events, ";"))
	return args
}

// explore runs args twice, traced, under the checker and returns the
// first run with its findings, and one more if the second run simulated
// something else (every step's numbers for one node, the totals line and
// the barrier trace for a fleet).
func explore(args []string) outcome {
	a, ok := simulate(args, true)
	if !ok || len(a.findings) > 0 {
		return a
	}
	if b, _ := simulate(args, true); b.sim != a.sim || b.trace != a.trace {
		a.findings = append(a.findings, "a second run of the same spec differs")
	}
	return a
}

// shrink drops one argument at a time while the run still has a finding,
// and returns the shortest failing list it reaches.
func shrink(args []string) []string {
	for i := 0; i < len(args); {
		if cand := slices.Delete(slices.Clone(args), i, i+1); len(explore(cand).findings) > 0 {
			args = cand
		} else {
			i++
		}
	}
	return args
}

// resetMemos empties the memos, so explored fields do not outlive the test.
func resetMemos() {
	fieldCache.Clear()
	statsCache.Clear()
	hierCache.Clear()
}

// TestExplore is the seeded explorer over Spec: 1,000 single-node and 200
// fleet argument lists, each run twice on the run pool against explore's
// oracle. A finding is shrunk flag by flag and reported as the tangosim
// command that reproduces it.
func TestExplore(t *testing.T) {
	if testing.Short() {
		t.Skip("explorer budget")
	}
	t.Cleanup(resetMemos)
	rng := rand.New(rand.NewSource(1))
	var lists [][]string
	for i := range 1200 {
		lists = append(lists, drawArgs(rng, i >= 1000))
	}
	var n tally
	findings := 0
	for i, run := range fanOut("explore", lists, explore) {
		if n.add(run); len(run.findings) == 0 {
			continue
		}
		if findings++; findings > 5 {
			t.Fatalf("more than 5 findings; stopping")
		}
		report(t, strings.Join(run.findings, "; "), shrink(lists[i]))
	}
	n.require(t)
}

// TestPriorityZeroIsDefault: -priority 0 runs at core's default priority,
// PriorityHigh, as tangosim did before its flags became a Spec.
func TestPriorityZeroIsDefault(t *testing.T) {
	var meanIO []float64
	for _, p := range []string{"0", "10"} {
		spec, err := ParseSpec([]string{"-grid=33", "-steps=4", "-priority=" + p})
		if err != nil {
			t.Fatal(err)
		}
		run, err := spec.Run(nil, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		meanIO = append(meanIO, run.Session.Summary(0).MeanIO)
	}
	if meanIO[0] != meanIO[1] {
		t.Errorf("-priority 0 mean I/O %v, -priority 10 %v; want equal", meanIO[0], meanIO[1])
	}
}

// FuzzSpec: any argument list either fails ParseSpec or, within the
// explorer's caps, runs traced without a finding of the checker; a run
// that fails before it starts (a plan the scenario cannot arm, a fleet
// it cannot build) is an error the fuzzer lets pass, as tangosim reports
// it. The seeds are
// tangosim's past bad inputs, the all-kill plan that crashed the fleet,
// and three runs that pass.
func FuzzSpec(f *testing.F) {
	for _, seed := range []string{
		"-bound -1", "-bound NaN", "-bound +Inf", "-bound 0.05", "-cache -5",
		"-nodes -3", "-nodes 0", "-priority NaN -steps 4 -grid 33", "-priority -1",
		"-nodes 2 -policy bogus -app nope -grid -4 -steps 0", "-nodes 2 -faults auto",
		"-faults weight-fail@600:cgroup=XGC", "-noise -1",
		"-grid 33 -steps 4 -faults latency@10:dev=hdd,add=NaN,dur=5",
		"-grid 33 -steps 4 -faults join@10:name=x,period=60,mb=Inf",
		"-grid 33 -nodes 4 -faults node-kill@60:node=node3x,dur=60",
		"-grid 33 -nodes 2 -faults node-kill@120:node=node0,dur=60;node-kill@130:node=node1,dur=60",
		"-grid 33 -steps 4 -faults bw-collapse@10:dev=nvme,factor=0.2,dur=5",
		"-grid 33 -steps 4 -priority 0",
		"-grid 33 -steps 6 -faults auto -resil -hedge -prefetch -control hybrid -bound 0.01",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, argv string) {
		defer resetMemos()
		if run, _ := simulate(strings.Fields(argv), true); run.err == nil && len(run.findings) > 0 {
			t.Fatal(strings.Join(run.findings, "\n"))
		}
	})
}

// TestRunBudgetRefusesSizesNoMachineHolds: a spec whose grid, steps or
// fleet cannot fit runBudget is refused with one line naming its flag,
// having allocated under 1 MiB, while the largest sizes the tools run —
// tangosim's defaults, the named 1000-node fleet, and tangobench at its
// default and CI scales — pass.
func TestRunBudgetRefusesSizesNoMachineHolds(t *testing.T) {
	for _, tc := range []struct{ args, flag string }{
		{"-grid 60000 -steps 2", "-grid 60000"},
		{"-steps 100000000", "-steps 100000000"},
		{"-nodes 10000000 -sessions 10000000", "-nodes 10000000"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ParseSpec(strings.Fields(tc.args))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: got %v, want one line starting %q", tc.args, err, tc.flag)
		}
		if a := after.TotalAlloc - before.TotalAlloc; a >= 1<<20 {
			t.Errorf("%s: refusing it allocated %d bytes", tc.args, a)
		}
	}
	for _, bad := range []Config{{GridN: 60000}, {Steps: 100_000_000}, {FleetScale: 1e5}} {
		if err := bad.WithDefaults().Validate(); err == nil || !strings.Contains(err.Error(), "GiB a run may use") {
			t.Errorf("%+v: got %v, want the run budget's refusal", bad, err)
		}
	}
	for _, args := range []string{"", "-grid 1025", "-nodes 1000 -sessions 100000"} {
		if _, err := ParseSpec(strings.Fields(args)); err != nil {
			t.Errorf("tangosim %s: %v", args, err)
		}
	}
	for _, ok := range []Config{{}, {GridN: 129, Steps: 40, SkipWarmup: 10, DatasetMB: 512}} {
		if err := ok.WithDefaults().Validate(); err != nil {
			t.Errorf("%+v: %v", ok, err)
		}
	}
}
