// Command tangobench regenerates every table and figure of the paper's
// evaluation (plus the design ablations) and prints them as text tables.
//
// Usage:
//
//	tangobench                 # run the full suite
//	tangobench -exp fig8       # run one experiment
//	tangobench -exp fig8,fig9  # run a subset, in the order given
//	tangobench -list           # list experiment IDs
//	tangobench -grid 1025      # paper-scale fields (slower)
//	tangobench -parallel 4     # scenario-runner workers (default GOMAXPROCS)
//
// A scale no experiment can run at (-steps not above -skip, -grid below
// the decomposition's minimum, a non-positive -dataset or -fleetscale) or
// an unknown -format is reported before anything runs, with exit status 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"tango/internal/harness"
	"tango/internal/runpool"
)

func main() {
	var (
		exp      = flag.String("exp", "", "comma-separated experiment IDs to run (default: all)")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		gridN    = flag.Int("grid", 0, "analysis field side length (default 513)")
		seed     = flag.Int64("seed", 0, "random seed (default 42)")
		steps    = flag.Int("steps", 0, "analysis steps per session (default 90)")
		skip     = flag.Int("skip", 0, "warm-up steps excluded from summaries (default 30)")
		dataset  = flag.Float64("dataset", 0, "staged dataset size in MB per app (default 2048)")
		fscale   = flag.Float64("fleetscale", 0, "fleet experiment sweep scale (default 1)")
		format   = flag.String("format", "table", "output format: table|csv|json")
		jsonOut  = flag.Bool("json", false, "emit all results of the run as one JSON document")
		parallel = flag.Int("parallel", 0, "scenario-runner workers; 1 = sequential (default GOMAXPROCS)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}

	// Everything the flags can get wrong is reported before anything runs.
	cfg := harness.Config{GridN: *gridN, Seed: *seed, Steps: *steps, SkipWarmup: *skip,
		DatasetMB: *dataset, FleetScale: *fscale}.WithDefaults()
	if err := cfg.Validate(); err != nil {
		fail(err)
	}
	if err := harness.CheckFormat(*format); err != nil {
		fail(err)
	}

	runpool.SetWorkers(*parallel)

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	var collected []*harness.Result
	run := func(e harness.Experiment) {
		start := time.Now()
		res := e.Run(cfg)
		if *jsonOut {
			collected = append(collected, res)
			return
		}
		if err := res.Format(os.Stdout, *format); err != nil {
			fail(err)
		}
		if *format == "table" {
			fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
		}
	}

	if *exp != "" {
		// Resolve the whole list before running anything so a typo in the
		// last ID doesn't waste the first experiment's runtime.
		var todo []harness.Experiment
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			e, err := harness.Lookup(id)
			if err != nil {
				fail(err)
			}
			todo = append(todo, e)
		}
		for _, e := range todo {
			run(e)
		}
	} else {
		for _, e := range harness.Experiments() {
			run(e)
		}
	}
	if *jsonOut {
		if err := harness.WriteSuiteJSON(os.Stdout, collected); err != nil {
			fail(err)
		}
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fail(err)
		}
	}
}

// fail reports a usage or I/O error and exits 2.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "tangobench:", err)
	os.Exit(2)
}
