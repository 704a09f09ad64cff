// Command tangosim runs a single storage-interference scenario: one
// analytics container under a chosen policy against the Table IV
// interference set, printing a per-step trace and the summary.
//
// Example:
//
//	tangosim -policy cross -noise 6 -bound 0.01 -priority 10 -steps 60
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"tango"
	"tango/internal/cliutil"
	"tango/internal/harness"
)

func main() {
	var (
		policy   = flag.String("policy", "cross", "adaptation policy: none|storage|app|cross|prefetch")
		noise    = flag.Int("noise", 6, "number of Table IV interfering containers (0-6)")
		appName  = flag.String("app", "XGC", "application: XGC|GenASiS|CFD")
		grid     = flag.Int("grid", 513, "analysis field side length")
		seed     = flag.Int64("seed", 42, "random seed")
		steps    = flag.Int("steps", 60, "analysis steps (60 s period each)")
		bound    = flag.Float64("bound", 0, "prescribed NRMSE bound (0 = no error control)")
		priority = flag.Float64("priority", tango.PriorityHigh, "application priority (1, 5, 10)")
		dataset  = flag.Float64("dataset", 2048, "staged dataset size in MB")
		verbose  = flag.Bool("v", false, "print every step (default: every 5th)")
		traceOut = flag.Bool("trace", false, "dump the controller event trace after the run")
		faults   = flag.String("faults", "", "fault plan spec (docs/faults.md), e.g. 'bw-collapse@900:dev=hdd,factor=0.2,dur=120; leave@2400:name=noise1', or 'auto' for a seed-generated plan")
		prefetch = flag.Bool("prefetch", false, "enable the fast-tier cache + idle-window prefetcher (implied by -policy prefetch)")
		cacheMB  = flag.Int("cache", 0, "fast-tier cache capacity in MB (0 = default 512; implies -prefetch)")
		resilOn  = flag.Bool("resil", false, "route recovery through the resilience control plane (policy-keyed retries, budgets, breakers; docs/resil.md)")
		hedge    = flag.Bool("hedge", false, "enable forecast-driven hedged reads (implies -resil; pairs best with -prefetch)")
		nodes    = flag.Int("nodes", 1, "fleet mode: simulate this many nodes over a shared object store (docs/fleet.md)")
		sessions = flag.Int("sessions", 0, "fleet mode: session count (default 10 per node)")
		objstore = flag.Bool("objstore", false, "fleet mode even with -nodes 1: back the node with the object-store capacity tier")
		control  = flag.String("control", "central", "weight-control mode: central|tokens|hybrid (docs/tokens.md)")
	)
	flag.Parse()

	mode, err := cliutil.ParseControl(*control)
	if err != nil {
		die(2, err)
	}

	if most := len(tango.TableIVNoise()); *noise < 0 || *noise > most {
		die(2, fmt.Errorf("-noise %d out of range (want 0-%d)", *noise, most))
	}
	switch {
	case !(*bound >= 0) || math.IsInf(*bound, 1):
		die(2, fmt.Errorf("-bound %v is not finite and >= 0", *bound))
	case *cacheMB < 0:
		die(2, fmt.Errorf("-cache %d is negative", *cacheMB))
	case *nodes < 1:
		die(2, fmt.Errorf("-nodes %d is below 1", *nodes))
	}

	if *nodes > 1 || *objstore {
		runFleet(*nodes, *sessions, *seed, mode, *faults, *traceOut, *verbose)
		return
	}

	pol, err := cliutil.ParsePolicy(*policy)
	if err != nil {
		die(2, err)
	}
	var app tango.App
	switch strings.ToLower(*appName) {
	case "xgc":
		app = tango.XGCApp()
	case "genasis":
		app = tango.GenASiSApp()
	case "cfd":
		app = tango.CFDApp()
	default:
		die(2, fmt.Errorf("unknown app %q", *appName))
	}

	// The summary skips the paper's 30-step estimation period, or half of
	// a shorter run.
	warmup := min(30, *steps/2)
	if err := (harness.Config{GridN: *grid, Seed: *seed, Steps: *steps, SkipWarmup: warmup,
		DatasetMB: *dataset, FleetScale: 1}).Validate(); err != nil {
		die(2, err)
	}

	fmt.Printf("generating %s field (%dx%d, seed %d)...\n", app.Name, *grid, *grid, *seed)
	field := app.Generate(*grid, *seed)

	bounds := []float64{1e-1, 1e-2, 1e-3, 1e-4}
	fmt.Println("decomposing (decimation ratio 16, NRMSE ladder 1e-1..1e-4)...")
	h, err := tango.DecomposeTensor(field, tango.RefactorOptions{
		Levels: tango.LevelsForRatio(16, 2, 2),
		Bounds: bounds,
	})
	if err != nil {
		die(1, err)
	}
	for _, rg := range h.Rungs() {
		fmt.Printf("  rung eps=%-8g cursor=%-9d +%d entries (%.1f%% DoF)\n",
			rg.Bound, rg.Cursor, rg.Cardinality, 100*h.DoFFraction(rg.Cursor))
	}

	node := tango.NewNode("node0")
	node.MustAddDevice(tango.SSD("ssd"))
	hdd := node.MustAddDevice(tango.HDD("hdd"))
	noiseHandles := tango.LaunchTableIVNoiseControlled(node, hdd, *noise)

	var plan *tango.FaultPlan
	if *faults == "auto" {
		interferers := make([]string, 0, len(noiseHandles))
		for i := 1; i <= *noise; i++ {
			interferers = append(interferers, fmt.Sprintf("noise%d", i))
		}
		plan, err = tango.GenerateFaultPlan(*seed, tango.FaultGenerateOptions{
			Horizon: float64(*steps) * 60, Device: "hdd",
			Cgroup: app.Name, Interferers: interferers,
		})
	} else if *faults != "" {
		plan, err = tango.ParseFaultPlan(*faults)
	}
	if err != nil {
		die(2, err)
	}

	scale := *dataset * 1024 * 1024 / float64(h.BaseBytes()+h.TotalAugBytes())
	if scale < 1 {
		scale = 1
	}
	store, err := tango.StageScaled(h, node.Tiers(), scale)
	if err != nil {
		die(1, err)
	}

	// -prefetch (or -cache) upgrades a cross-layer run to the cache
	// variant; with other policies the cache rides along as configured.
	if *cacheMB > 0 {
		*prefetch = true
	}
	cfg := tango.SessionConfig{
		Policy:   pol,
		Priority: *priority,
		Steps:    *steps,
	}
	if *prefetch {
		if cfg.Policy == tango.CrossLayer {
			cfg.Policy = tango.CrossLayerPrefetch
		}
		cc := tango.DefaultCacheConfig()
		if *cacheMB > 0 {
			cc.CapacityMB = *cacheMB
		}
		cfg.Cache = &cc
	}
	var rec *tango.TraceRecorder
	if *traceOut || plan != nil {
		rec = tango.NewTraceRecorder(1 << 16)
		cfg.Trace = rec
	}
	if *hedge {
		*resilOn = true
	}
	var rc *tango.ResilController
	if *resilOn {
		rc = tango.NewResilController(node.Engine(), tango.ResilOptions{
			Trace: rec,
			Hedge: tango.HedgeConfig{Enabled: *hedge},
		})
		cfg.Resil = rc
	}
	if *bound > 0 {
		cfg.ErrorControl = true
		cfg.Bound = *bound
	}
	// -control tokens|hybrid swaps the weight path onto per-session token
	// buckets; central keeps the direct cgroup writes (the single-session
	// run needs no coordinator).
	var tokens *tango.TokenController
	if mode != tango.ModeCentral {
		var topts tango.TokenOptions
		if mode == tango.ModeHybrid {
			topts.EpochSec = 300
		}
		tokens = tango.NewTokenController(node.Engine().Now, topts)
		cfg.Tokens = tokens
	}
	sess, err := tango.NewSession(app.Name, store, cfg)
	if err != nil {
		die(1, err)
	}
	if err := sess.Launch(node); err != nil {
		die(1, err)
	}
	var injector *tango.FaultInjector
	if plan != nil {
		injector = tango.NewFaultInjector(node, rec, plan)
		injector.RegisterNoise(noiseHandles)
		if err := injector.Arm(); err != nil {
			die(2, err)
		}
		fmt.Printf("fault plan armed: %s\n", plan)
	}
	fmt.Printf("running %d steps under %s with %d interferers...\n\n", *steps, pol, *noise)
	err = node.Engine().Run(float64(*steps)*60 + 3600)
	node.Engine().Close()
	if err != nil {
		die(1, err)
	}

	fmt.Printf("%5s %9s %10s %10s %9s %7s %8s\n",
		"step", "t(s)", "io(s)", "MB", "estMB/s", "degree", "weightN")
	for _, st := range sess.Stats() {
		if !*verbose && st.Step%5 != 0 {
			continue
		}
		fmt.Printf("%5d %9.0f %10.3f %10.1f %9.1f %7.2f %8d\n",
			st.Step, st.Start, st.IOTime, st.Bytes/(1024*1024),
			st.Predicted/(1024*1024), st.Degree, len(st.Buckets))
	}
	sum := sess.Summary(warmup)
	fmt.Printf("\nsummary (steps %d+): mean I/O %.3fs  std %.3fs  min %.3fs  max %.3fs  mean %.1f MB/step\n",
		warmup, sum.MeanIO, sum.StdIO, sum.MinIO, sum.MaxIO, sum.MeanBytes/(1024*1024))
	if c := sess.Cache(); c != nil {
		cs := c.Stats()
		fmt.Printf("cache: %d hits / %d misses, %.1f MB served fast, %.1f MB staged, %.1f MB evicted, %.0f/%.0f MB used\n",
			cs.Hits, cs.Misses, cs.HitBytes/(1024*1024), cs.StagedBytes/(1024*1024),
			cs.EvictedBytes/(1024*1024), c.Used()/(1024*1024), c.Capacity()/(1024*1024))
		ps := sess.Prefetcher().Stats()
		fmt.Printf("prefetcher: %d ticks, %d staging runs, %d paused, %d busy, %d aborted\n",
			ps.Ticks, ps.Runs, ps.Paused, ps.Busy, ps.Aborted)
	}
	if rc != nil {
		tot := rc.Totals()
		fmt.Printf("resil: %d ops, %d attempts (amp %.3f), %d retries, %d timeouts, %d degraded, %d breaker opens, %d hedges (%d fast / %d slow wins), %.1f MB wasted\n",
			tot.Ops, tot.Attempts, tot.Amplification(), tot.Retries, tot.Timeouts,
			tot.Degraded, tot.BreakerOpens, tot.Hedges, tot.HedgeFastWins,
			tot.HedgeSlowWins, tot.WastedBytes/(1024*1024))
	}
	if tokens != nil {
		ts := tokens.Stats()
		fmt.Printf("tokens (%s): %d weight writes, %d borrows, %d repays, %d recalls\n",
			mode, ts.Writes, ts.Borrows, ts.Repays, ts.Recalls)
	}
	if injector != nil {
		retries := 0
		for _, st := range sess.Stats() {
			retries += st.Retries
		}
		fmt.Printf("faults: %d injected, %d cleared, %d skipped; %d read retries; %d unpaired\n",
			injector.Injected(), injector.Cleared(), injector.Skipped(),
			retries, len(tango.UnpairedFaults(rec.Events())))
	}
	if *traceOut {
		fmt.Printf("\ncontroller trace (%d events):\n", rec.Len())
		if _, err := rec.WriteTo(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tangosim:", err)
		}
	}
}

// die reports err and exits: 2 for a bad invocation, 1 for a failed run.
func die(code int, err error) {
	fmt.Fprintln(os.Stderr, "tangosim:", err)
	os.Exit(code)
}

// runFleet is tangosim's cluster mode (-nodes / -objstore): an N-node
// fleet of single-node stacks over a shared object store, with optional
// node-kill fault plans, printing per-epoch aggregate throughput and the
// cluster totals line.
func runFleet(nodes, sessions int, seed int64, mode tango.ControlMode, faults string, traceOut, verbose bool) {
	var plan *tango.FaultPlan
	if faults != "" {
		var err error
		plan, err = tango.ParseFaultPlan(faults)
		if err != nil {
			die(2, err)
		}
	}
	rec := tango.NewTraceRecorder(16384)
	cfg := tango.FleetConfig{
		Nodes:    nodes,
		Sessions: sessions,
		Seed:     seed,
		Plan:     plan,
		Trace:    rec,
		Control:  mode,
	}
	c, err := tango.NewFleet(cfg)
	if err != nil {
		die(2, err)
	}
	if sessions == 0 {
		sessions = nodes * 10
	}
	store := tango.DefaultObjstore(nodes)
	fmt.Printf("fleet: %d nodes, %d sessions, seed %d, %s control\n", nodes, sessions, seed, mode)
	fmt.Printf("objstore: %.0f MB/s per-node frontend, %.0f MB/s shared egress, %.0f ms/request\n",
		store.NodeBandwidth/(1<<20), store.TotalEgress/(1<<20), 1000*store.RequestLatency)
	if plan != nil {
		fmt.Printf("fault plan: %s\n", plan)
	}
	if verbose {
		fmt.Print(c.Describe(16))
	}
	rep, err := c.Run()
	if err != nil {
		die(1, err)
	}
	for e, mbps := range rep.EpochMBps {
		warm := ""
		if e < 2 {
			warm = "  (warm-up)"
		}
		fmt.Printf("epoch %2d: agg %8.1f MB/s%s\n", e, mbps, warm)
	}
	if traceOut {
		fmt.Println("--- cluster trace ---")
		if _, err := rec.WriteTo(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tangosim:", err)
		}
	}
	fmt.Println(rep.TotalsLine())
	if mode != tango.ModeCentral {
		fmt.Printf("tokens: %d weight writes, %d borrows, %d repays, %d recalls\n",
			rep.Tokens.Writes, rep.Tokens.Borrows, rep.Tokens.Repays, rep.Tokens.Recalls)
	}
}
