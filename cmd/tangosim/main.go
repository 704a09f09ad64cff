// Command tangosim runs a single storage-interference scenario: one
// analytics container under a chosen policy against the Table IV
// interference set, printing a per-step trace and the summary. The run
// flags are a harness.Spec, validated before any work.
//
// Example:
//
//	tangosim -policy cross -noise 6 -bound 0.01 -priority 10 -steps 60
package main

import (
	"flag"
	"fmt"
	"os"

	"tango"
	"tango/internal/harness"
)

func main() {
	spec := harness.SpecFlags(flag.CommandLine)
	verbose := flag.Bool("v", false, "print every step (default: every 5th)")
	traceOut := flag.Bool("trace", false, "dump the controller event trace after the run")
	flag.Parse()
	if err := spec.Validate(); err != nil {
		die(2, err)
	}
	if spec.Fleet() {
		runFleet(spec.FleetConfig(tango.NewTraceRecorder(16384)), *traceOut, *verbose)
		return
	}

	var rec *tango.TraceRecorder
	if *traceOut || spec.FaultPlan != nil {
		rec = tango.NewTraceRecorder(1 << 16)
	}
	run, err := spec.Run(rec, os.Stdout)
	if err != nil {
		die(2, err)
	}
	sess := run.Session
	fmt.Printf("%5s %9s %10s %10s %9s %7s %8s\n",
		"step", "t(s)", "io(s)", "MB", "estMB/s", "degree", "weightN")
	for i, st := range sess.Stats() {
		if !*verbose && i%5 != 0 {
			continue
		}
		fmt.Printf("%5d %9.0f %10.3f %10.1f %9.1f %7.2f %8d\n",
			i, st.Start, st.IOTime, st.Bytes/(1024*1024),
			st.Predicted/(1024*1024), st.Degree, len(sess.Buckets(i)))
	}
	sum := sess.Summary(spec.SkipWarmup)
	fmt.Printf("\nsummary (steps %d+): mean I/O %.3fs  std %.3fs  min %.3fs  max %.3fs  mean %.1f MB/step\n",
		spec.SkipWarmup, sum.MeanIO, sum.StdIO, sum.MinIO, sum.MaxIO, sum.MeanBytes/(1024*1024))
	if c := sess.Cache(); c != nil {
		cs := c.Stats()
		fmt.Printf("cache: %d hits / %d misses, %.1f MB served fast, %.1f MB staged, %.1f MB evicted, %.0f/%.0f MB used\n",
			cs.Hits, cs.Misses, cs.HitBytes/(1024*1024), cs.StagedBytes/(1024*1024),
			cs.EvictedBytes/(1024*1024), c.Used()/(1024*1024), c.Capacity()/(1024*1024))
		ps := sess.Prefetcher().Stats()
		fmt.Printf("prefetcher: %d ticks, %d staging runs, %d paused, %d busy, %d aborted\n",
			ps.Ticks, ps.Runs, ps.Paused, ps.Busy, ps.Aborted)
	}
	if rc := sess.Config.Resil; rc != nil {
		tot := rc.Totals()
		fmt.Printf("resil: %d ops, %d attempts (amp %.3f), %d retries, %d timeouts, %d degraded, %d breaker opens, %d hedges (%d fast / %d slow wins), %.1f MB wasted\n",
			tot.Ops, tot.Attempts, tot.Amplification(), tot.Retries, tot.Timeouts,
			tot.Degraded, tot.BreakerOpens, tot.Hedges, tot.HedgeFastWins,
			tot.HedgeSlowWins, tot.WastedBytes/(1024*1024))
	}
	if tokens := sess.Config.Tokens; tokens != nil {
		ts := tokens.Stats()
		fmt.Printf("tokens (%s): %d weight writes, %d borrows, %d repays, %d recalls\n",
			run.Mode, ts.Writes, ts.Borrows, ts.Repays, ts.Recalls)
	}
	if in := run.Scenario.Injector; in != nil {
		retries := 0
		for _, st := range sess.Stats() {
			retries += st.Retries
		}
		fmt.Printf("faults: %d injected, %d cleared, %d skipped; %d read retries; %d unpaired\n",
			in.Injected(), in.Cleared(), in.Skipped(), retries, len(tango.UnpairedFaults(rec.Events())))
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

// runFleet is tangosim's cluster mode (-nodes / -objstore), printing
// per-epoch aggregate throughput and the cluster totals line.
func runFleet(cfg tango.FleetConfig, traceOut, verbose bool) {
	c, err := tango.NewFleet(cfg)
	if err != nil {
		die(2, err)
	}
	fmt.Printf("fleet: %d nodes, %d sessions, seed %d, %s control\n", cfg.Nodes, cfg.Sessions, cfg.Seed, cfg.Control)
	obj := c.Objstore()
	fmt.Printf("objstore: %.0f MB/s per-node frontend, %.0f MB/s shared egress, %.0f ms/request\n",
		obj.NodeBandwidth/(1<<20), obj.TotalEgress/(1<<20), 1000*obj.RequestLatency)
	if cfg.Plan != nil {
		fmt.Printf("fault plan: %s\n", cfg.Plan)
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
		if _, err := cfg.Trace.WriteTo(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tangosim:", err)
		}
	}
	fmt.Println(rep.TotalsLine())
	if cfg.Control != tango.ModeCentral {
		fmt.Printf("tokens: %d weight writes, %d borrows, %d repays, %d recalls\n",
			rep.Tokens.Writes, rep.Tokens.Borrows, rep.Tokens.Repays, rep.Tokens.Recalls)
	}
}
