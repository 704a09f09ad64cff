package tango_test

import (
	"bytes"
	"fmt"
	"testing"

	"tango"
	"tango/internal/fault"
	"tango/internal/harness"
	"tango/internal/runpool"
)

// runSmallScenario executes one compact end-to-end run (decompose,
// stage, interfere, retrieve under the cross-layer policy) and returns
// every observable output serialized to bytes: the encoded hierarchy,
// the per-step stats, and the summary.
func runSmallScenario(t *testing.T) []byte {
	t.Helper()
	app := tango.XGCApp()
	field := app.Generate(65, 3)

	h, err := tango.DecomposeTensor(field, tango.RefactorOptions{
		Levels: 3,
		Bounds: []float64{0.1, 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.Encode(&buf); err != nil {
		t.Fatal(err)
	}

	node := tango.NewNode("node0")
	node.MustAddDevice(tango.SSD("ssd"))
	hdd := node.MustAddDevice(tango.HDD("hdd"))
	tango.LaunchTableIVNoise(node, hdd, 3)

	store, err := tango.StageScaled(h, node.Tiers(), 2048)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := tango.NewSession("analytics", store, tango.SessionConfig{
		Policy:       tango.CrossLayer,
		ErrorControl: true,
		Bound:        0.01,
		Priority:     tango.PriorityHigh,
		Steps:        8,
		Window:       5,
		RefitEvery:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Launch(node); err != nil {
		t.Fatal(err)
	}
	if err := node.Engine().Run(8*60 + 600); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "summary=%+v\n", sess.Summary(2))
	for _, st := range sess.Stats() {
		fmt.Fprintf(&buf, "step=%+v\n", st)
	}
	return buf.Bytes()
}

// TestSameSeedByteMatch is the determinism regression test: two
// independent runs of the same configuration must produce byte-identical
// outputs. This is the contract docs/determinism.md describes and the
// detertaint analyzer enforces statically — if it ever fails, a
// wall-clock, global-rand, or map-order dependence has crept in.
func TestSameSeedByteMatch(t *testing.T) {
	a := runSmallScenario(t)
	b := runSmallScenario(t)
	if !bytes.Equal(a, b) {
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				t.Fatalf("same-seed runs diverge at output byte %d of %d/%d", i, len(a), len(b))
			}
		}
		t.Fatalf("same-seed runs produced %d and %d bytes", len(a), len(b))
	}
}

// runFaultedScenario is runSmallScenario under fire: the same compact
// run with a fault plan covering every fault group (device degradation,
// cgroup faults, workload churn) armed against it. It serializes the
// stats, the full controller/fault trace, and the injector counters.
func runFaultedScenario(t *testing.T) []byte {
	t.Helper()
	app := tango.XGCApp()
	field := app.Generate(65, 3)

	h, err := tango.DecomposeTensor(field, tango.RefactorOptions{
		Levels: 3,
		Bounds: []float64{0.1, 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}

	node := tango.NewNode("node0")
	node.MustAddDevice(tango.SSD("ssd"))
	hdd := node.MustAddDevice(tango.HDD("hdd"))
	noises := tango.LaunchTableIVNoiseControlled(node, hdd, 3)

	store, err := tango.StageScaled(h, node.Tiers(), 2048)
	if err != nil {
		t.Fatal(err)
	}
	rec := tango.NewTraceRecorder(1 << 14)
	sess, err := tango.NewSession("analytics", store, tango.SessionConfig{
		Policy:       tango.CrossLayer,
		ErrorControl: true,
		Bound:        0.01,
		Priority:     tango.PriorityHigh,
		Steps:        8,
		Window:       5,
		RefitEvery:   5,
		Trace:        rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Launch(node); err != nil {
		t.Fatal(err)
	}
	plan, err := tango.ParseFaultPlan(
		"latency@100:dev=hdd,add=0.05,dur=60; bw-collapse@150:dev=hdd,factor=0.3,dur=90; " +
			"read-err@260:dev=hdd,dur=40; weight-fail@300:cg=analytics,dur=60; " +
			"period@200:name=noise2,period=50; leave@350:name=noise1")
	if err != nil {
		t.Fatal(err)
	}
	in := tango.NewFaultInjector(node, rec, plan)
	in.RegisterNoise(noises)
	if err := in.Arm(); err != nil {
		t.Fatal(err)
	}
	if err := node.Engine().Run(8*60 + 600); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	fmt.Fprintf(&buf, "summary=%+v\n", sess.Summary(2))
	for _, st := range sess.Stats() {
		fmt.Fprintf(&buf, "step=%+v\n", st)
	}
	fmt.Fprintf(&buf, "faults=%d/%d/%d unpaired=%d\n",
		in.Injected(), in.Cleared(), in.Skipped(), len(tango.UnpairedFaults(rec.Events())))
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFaultedSameSeedByteMatch extends the determinism contract to the
// fault path: injection windows, staging retries/backoff, regime refits,
// and weight re-application all run on the virtual clock, so two runs of
// the same (seed, plan) must agree byte-for-byte — stats, trace, and
// injector counters included.
func TestFaultedSameSeedByteMatch(t *testing.T) {
	a := runFaultedScenario(t)
	b := runFaultedScenario(t)
	if !bytes.Equal(a, b) {
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				t.Fatalf("same-plan runs diverge at output byte %d of %d/%d", i, len(a), len(b))
			}
		}
		t.Fatalf("same-plan runs produced %d and %d bytes", len(a), len(b))
	}
}

// TestSyntheticFieldsByteMatch pins generator-level determinism: the
// synthetic app fields behind every experiment must be bit-identical
// across calls with the same seed.
func TestSyntheticFieldsByteMatch(t *testing.T) {
	for _, app := range tango.Apps() {
		a := app.Generate(65, 11)
		b := app.Generate(65, 11)
		if a.AbsDiffMax(b) != 0 {
			t.Fatalf("%s: same-seed fields differ", app.Name)
		}
	}
}

// experimentResult enters a harness experiment by ID, as tangobench does.
func experimentResult(t *testing.T, id string, cfg harness.Config) *harness.Result {
	t.Helper()
	e, err := harness.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	return e.Run(cfg)
}

// TestResilExperimentByteMatch extends the contract to the resilience
// control plane: policy-keyed retries, budget pacing, breaker
// transitions, and hedged-read races (the hedged arm runs faulted with
// hedging enabled, cancelling loser legs mid-flight) are all driven by
// the virtual clock, so two runs of `-exp resil` at the same seed must
// render identically — including every per-attempt counter the table
// reports.
func TestResilExperimentByteMatch(t *testing.T) {
	run := func() []byte {
		r := experimentResult(t, "resil", harness.Config{
			GridN: 65, Seed: 7, Steps: 40, SkipWarmup: 30, DatasetMB: 256,
		})
		return []byte(r.String())
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				t.Fatalf("same-seed resil runs diverge at output byte %d of %d/%d:\n%s", i, len(a), len(b), a)
			}
		}
		t.Fatalf("same-seed resil runs produced %d and %d bytes", len(a), len(b))
	}
}

// TestPrefetchExperimentByteMatch extends the contract to the cache +
// prefetcher subsystem: the background staging flow, cost-benefit
// eviction, and forecast-gated pausing all run on the virtual clock, so
// two runs of `-exp prefetch` at the same seed must render identically.
func TestPrefetchExperimentByteMatch(t *testing.T) {
	run := func() []byte {
		r := experimentResult(t, "prefetch", harness.Config{
			GridN: 65, Seed: 7, Steps: 40, SkipWarmup: 30, DatasetMB: 256,
		})
		return []byte(r.String())
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				t.Fatalf("same-seed prefetch runs diverge at output byte %d of %d/%d:\n%s", i, len(a), len(b), a)
			}
		}
		t.Fatalf("same-seed prefetch runs produced %d and %d bytes", len(a), len(b))
	}
}

// TestFleetExperimentByteMatch pins the fleet-scale contract: an entire
// `-exp fleet` sweep — N per-node engines running their epoch windows
// through runpool — must render byte-identically at worker width 1 and
// 4. All cross-node mutation (placement, migration, egress resharing,
// ledger harvesting) happens at sequential barriers in node-index
// order; this test is the proof.
func TestFleetExperimentByteMatch(t *testing.T) {
	run := func(workers int) []byte {
		prev := runpool.Workers()
		runpool.SetWorkers(workers)
		defer runpool.SetWorkers(prev)
		r := experimentResult(t, "fleet", harness.Config{Seed: 7, FleetScale: 0.02})
		return []byte(r.String())
	}
	a, b := run(1), run(4)
	if !bytes.Equal(a, b) {
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				t.Fatalf("fleet runs diverge across worker widths at output byte %d of %d/%d:\n%s", i, len(a), len(b), a)
			}
		}
		t.Fatalf("fleet runs produced %d and %d bytes across worker widths", len(a), len(b))
	}
}

// TestTokensExperimentByteMatch pins the token-control contract: the
// whole `-exp tokens` sweep — nine single-node arms (three control
// modes through quiet, mass weight-fail, and chaos plans) plus three
// fleet arms under node-kill — must render byte-identically at runpool
// worker width 1 and 4. Every borrow, repayment, and recall happens
// inside one node's engine-serialized window, so the ledger is exactly
// as reproducible as the weight timeline it funds.
func TestTokensExperimentByteMatch(t *testing.T) {
	run := func(workers int) []byte {
		prev := runpool.Workers()
		runpool.SetWorkers(workers)
		defer runpool.SetWorkers(prev)
		r := experimentResult(t, "tokens", harness.Config{
			GridN: 65, Seed: 7, Steps: 40, SkipWarmup: 30, DatasetMB: 256,
		})
		return []byte(r.String())
	}
	a, b := run(1), run(4)
	if !bytes.Equal(a, b) {
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				t.Fatalf("tokens runs diverge across worker widths at output byte %d of %d/%d:\n%s", i, len(a), len(b), a)
			}
		}
		t.Fatalf("tokens runs produced %d and %d bytes across worker widths", len(a), len(b))
	}
}

// TestFleetFaultedByteMatch repeats the width sweep with an explicit
// node-kill plan on the fleet experiment's 5% shapes: kill/rebalance/
// revive/settle-back all happen at barriers, so the fault path, cluster
// trace included, must be exactly as reproducible as the quiet one.
func TestFleetFaultedByteMatch(t *testing.T) {
	plan, err := fault.ParsePlan("node-kill@240:node=node0,dur=120; node-kill@240:node=node3,dur=180")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []byte {
		prev := runpool.Workers()
		runpool.SetWorkers(workers)
		defer runpool.SetWorkers(prev)
		var out bytes.Buffer
		for _, shape := range [][2]int{{2, 8}, {5, 500}, {50, 5000}} {
			rec := tango.NewTraceRecorder(1024)
			c, err := tango.NewFleet(tango.FleetConfig{Nodes: shape[0], Sessions: shape[1], Seed: 11, Plan: plan, Trace: rec})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%s\n%v\n", rep.TotalsLine(), rep.EpochMBps)
			if _, err := rec.WriteTo(&out); err != nil {
				t.Fatal(err)
			}
		}
		return out.Bytes()
	}
	a, b := run(1), run(4)
	if !bytes.Contains(a, []byte("node-kill node=node3")) || !bytes.Contains(a, []byte("node-revive node=node0")) {
		t.Fatalf("the plan's kills and revivals are missing from the trace:\n%s", a)
	}
	if !bytes.Equal(a, b) {
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				t.Fatalf("faulted fleet runs diverge across worker widths at output byte %d of %d/%d:\n%s", i, len(a), len(b), a)
			}
		}
		t.Fatalf("faulted fleet runs produced %d and %d bytes across worker widths", len(a), len(b))
	}
}
