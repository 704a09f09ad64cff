// Command perf is the host-time benchmark of the Tango stack: four
// closed-loop workloads, six gated end-to-end metrics, and in the traced
// run a per-layer attribution. The simulator is deterministic, so host
// time is what is measured; simulated statistics repeat exactly for a
// seed and are pinned (sim_digest), never timed. See README.md.
//
//	go run ./benchmarks/perf                       all workloads
//	go run ./benchmarks/perf -workload fleet       one workload
//	go run ./benchmarks/perf -trace 1              per-layer metrics
//	go run ./benchmarks/perf -sets 2               run-to-run spread table
//	go run ./benchmarks/perf -quick                smoke scale
package main

import (
	"bytes"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"tango/internal/runpool"
	"tango/internal/trace"
)

// cores is what GOMAXPROCS and the runpool width are pinned to: the
// nproc of the sandbox the bounds were chosen on. Timings taken at
// another width are not comparable.
const cores = 2

// setupReps is how often a run repeats set-up to report its median.
const setupReps = 3

const goldenPath = "benchmarks/perf/golden.json"

//go:embed golden.json
var goldenJSON []byte

type options struct {
	workload     string
	seed         int64
	seconds      int
	traced       bool
	sets         int
	quick        bool
	traceOut     string
	updateGolden bool
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all, one process each)")
	flag.Int64Var(&o.seed, "seed", 42, "input seed")
	flag.IntVar(&o.seconds, "seconds", 15, "nominal length of the timed phase; fixes the iteration count")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run, prints the per-layer metrics instead of the end-to-end ones")
	flag.IntVar(&o.sets, "sets", 1, "run this many full sets and print the spread between them")
	flag.BoolVar(&o.quick, "quick", false, "smoke scale: one iteration of small inputs")
	flag.StringVar(&o.traceOut, "trace-out", "", "traced run: write the spans to this file as JSON")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "record this run's sim_digest in "+goldenPath+" (seed 42, full scale)")
	flag.Parse()
	o.traced = traceFlag != 0
	if flag.NArg() > 0 || o.seconds < 1 || o.sets < 1 {
		fmt.Fprintln(os.Stderr, "perf: bad arguments")
		flag.Usage()
		os.Exit(2)
	}

	var err error
	if o.workload == "" {
		err = runAll(os.Stdout, o)
	} else {
		err = runOne(os.Stdout, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints "metric <workload> <name> <value> <unit>" and "info
// <workload> <key> <value>" lines: readable, and what runAll parses
// back from its children.
type report struct {
	w        io.Writer
	workload string
}

func (r report) metric(name string, v float64, unit string) {
	fmt.Fprintf(r.w, "metric %s %s %s %s\n", r.workload, name, strconv.FormatFloat(v, 'g', -1, 64), unit)
}

func (r report) info(key string, v any) {
	fmt.Fprintf(r.w, "info %s %s %v\n", r.workload, key, v)
}

// limit is the wall time after which a phase stops starting iterations.
func (o options) limit() time.Duration { return time.Duration(3*o.seconds) * time.Second }

// iterations turns -seconds into a fixed iteration count.
func iterations(w workload, o options) int {
	if o.quick {
		return 1
	}
	return max(1, int(math.Round(float64(o.seconds)/w.nominalIterS)))
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runOne runs one workload in this process and prints its result line.
func runOne(out io.Writer, o options) error {
	w, ok := lookupWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(cores)
	runpool.SetWorkers(cores)
	sc, scaleName := fullScale, "full"
	if o.quick {
		sc, scaleName = quickScale, "quick"
	}
	rep := report{out, w.name}
	rep.info("env", fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s seed=%d scale=%s unit=%q",
		nproc, cores, runtime.Version(), commit(), o.seed, scaleName, w.unit))

	// The probes run first, in a process that has done nothing else: a
	// workload leaves a heap and parked goroutines behind that would
	// show in them.
	probed := map[string]float64{}
	if o.traced {
		div := 1
		if o.quick {
			div = quickProbeDiv
		}
		if err := runProbes(probed, div); err != nil {
			return fmt.Errorf("probes: %w", err)
		}
	}

	reps := setupReps
	if o.quick || o.traced {
		reps = 1
	}
	var inst instance
	var setupS []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		if inst, err = w.setup(o.seed, sc); err != nil {
			return fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	iters := iterations(w, o)
	if o.traced {
		iters = max(1, iters/4)
	}
	// The untraced iterations: the whole timed phase of the end-to-end
	// run, and the reference the traced run's overhead is taken against.
	run, err := timedPhase(inst, iters, nil, nil, o.limit())
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	run.fold(&res)
	if o.traced {
		err = reportLayers(rep, inst, iters, run, probed, o, &res)
	} else {
		err = reportEndToEnd(rep, run, setupS, &res)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}

	digest := hex.EncodeToString(run.digest[:])
	rep.info("sim_digest", digest)
	if o.seed == 42 && !o.quick {
		if err := compareGolden(rep, w.name, digest, o.updateGolden); err != nil {
			return err
		}
	}
	res.Correct = res.Correct && res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: outputs are wrong: %d of %d units failed, sim_digest repeats=%v",
			w.name, res.Failed, res.Attempted, run.digestStable)
	}
	return nil
}

// reportEndToEnd prints the gated metrics, all medians over the timed
// iterations, and what is printed beside them ungated.
func reportEndToEnd(rep report, run *phase, setupS []float64, res *result) error {
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	units := float64(run.unitsPerIter)
	values := map[string]float64{
		"units_per_s":       units / median(run.wallS),
		"cpu_ms_per_kunit":  median(run.cpuS) * 1e6 / units,
		"allocs_per_unit":   median(run.mallocs) / units,
		"alloc_kb_per_unit": median(run.allocBytes) / 1024 / units,
		"peak_rss_mb":       rss,
		"setup_s":           median(setupS),
	}
	for _, m := range endToEnd {
		rep.metric(m.name, values[m.name], m.unit)
		res.Metrics[m.name] = metricValue{values[m.name], m.unit}
	}
	rep.metric("failed_frac", float64(res.Failed)/float64(res.Attempted), "ratio")
	rep.metric("iter_s_p50", median(run.wallS), "s")
	rep.metric("iter_s_max", slices.Max(run.wallS), "s")
	rep.info("iterations", len(run.wallS))
	rep.info("iter_s_all", fmt.Sprintf("%.4f", run.wallS))
	rep.info("setup_samples", len(setupS))
	for _, k := range sortedKeys(run.counts) {
		rep.info("count."+k, strconv.FormatFloat(run.counts[k], 'g', -1, 64))
	}
	return nil
}

// reportLayers runs the traced phase and prints the per-layer metrics
// that apply to this workload. The result line carries every per-layer
// name, 0 where one does not apply.
func reportLayers(rep report, inst instance, iters int, untraced *phase, probed map[string]float64, o options, res *result) error {
	values, err := tracedPhase(rep, inst, iters, untraced, o, res)
	if err != nil {
		return fmt.Errorf("traced: %w", err)
	}
	for k, v := range probed {
		values[k] = v
	}
	for _, d := range perLayer() {
		v, measured := values[d.name]
		if d.appliesTo(o.workload) {
			if !measured {
				return fmt.Errorf("per-layer metric %s was not measured", d.name)
			}
			rep.metric(d.name, v, d.unit)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	rep.info("traced_iterations", iters)
	return nil
}

// phase is what a run of iterations measured.
type phase struct {
	wallS, cpuS, mallocs, allocBytes []float64
	unitsPerIter                     int
	attempted, failed                int
	digest                           [32]byte
	digestStable                     bool
	counts                           map[string]float64 // of the last iteration
}

func (p *phase) fold(res *result) {
	res.Attempted += p.attempted
	res.Failed += p.failed
	if !p.digestStable {
		res.Correct = false
	}
}

// timedPhase runs n iterations of inst, timing each. The iteration
// count is fixed; limit only stops a run that has gone so far over its
// nominal length (a much slower machine) that the caller's time cap is
// in danger, and the iterations done are reported.
func timedPhase(inst instance, n int, tr *tracer, ev *eventCounts, limit time.Duration) (*phase, error) {
	p := &phase{digestStable: true}
	start := time.Now()
	for i := 0; i < n; i++ {
		if i > 0 && time.Since(start) > limit {
			break
		}
		end := tr.begin("iteration")
		var raw any
		s, err := measure(func() (err error) {
			raw, err = inst.iterate(tr, ev)
			return err
		})
		end()
		if err != nil {
			return nil, fmt.Errorf("iteration %d: %w", i, err)
		}
		out := inst.check(raw)
		if i == 0 {
			p.digest, p.unitsPerIter = out.digest, out.units
		} else if out.digest != p.digest {
			// Identical inputs must give identical simulated outputs.
			p.digestStable = false
			out.failed = out.units
		}
		p.attempted += out.units
		p.failed += out.failed
		p.counts = out.counts
		if ev != nil {
			p.counts["dftestim.refits"] = float64(ev.take(trace.KindRefit))
			p.counts["blkio.weight_writes"] = float64(ev.take(trace.KindWeight))
		}
		p.wallS = append(p.wallS, s.wallS)
		p.cpuS = append(p.cpuS, s.cpuS)
		p.mallocs = append(p.mallocs, float64(s.mallocs))
		p.allocBytes = append(p.allocBytes, float64(s.allocBytes))
	}
	return p, nil
}

// tracedPhase repeats the iterations with spans and the CPU profiler
// on, runs one more with the stack's own trace.Recorder on to count its
// events, and returns the per-layer values these measured. The Recorder gets an iteration of its own because
// formatting its events costs more than the work it observes on the
// node_* workloads, which would skew the CPU attribution.
func tracedPhase(rep report, inst instance, iters int, untraced *phase, o options, res *result) (map[string]float64, error) {
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	endRun := tr.begin("run")
	run, err := timedPhase(inst, iters, tr, nil, o.limit())
	endRun()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	run.fold(res)

	recorded, err := timedPhase(inst, 1, nil, newEventCounts(), o.limit())
	if err != nil {
		return nil, fmt.Errorf("with the recorder on: %w", err)
	}
	recorded.fold(res)
	if run.digest != untraced.digest || recorded.digest != untraced.digest {
		// Observing a run must not change what it simulates.
		res.Correct = false
	}
	untracedIterS := median(untraced.wallS)
	rep.info("recorder_overhead_frac", recorded.wallS[0]/untracedIterS-1)

	values := map[string]float64{
		"bench.trace_overhead_frac": median(run.wallS)/untracedIterS - 1,
	}
	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	rep.info("cpu_profile_samples", samples)
	for layer, share := range shares {
		values[layer+".cpu_share"] = share
	}
	perIter := map[string][]float64{}
	for i, s := range tr.spans {
		if s.Name != "iteration" {
			continue
		}
		totals := tr.totalsUnder(i)
		for _, d := range spanDefs() {
			if d.appliesTo(o.workload) {
				perIter[d.name] = append(perIter[d.name], totals[d.name])
			}
		}
	}
	for name, xs := range perIter {
		values[name] = median(xs)
	}
	for k, v := range recorded.counts {
		values[k] = v
	}
	if o.traceOut != "" {
		if err := tr.writeFile(o.traceOut); err != nil {
			return nil, err
		}
	}
	return values, nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// compareGolden reports whether the digest differs from the recorded
// one. A difference fails nothing: a PR that changes behaviour on
// purpose refreshes the file with -update-golden.
func compareGolden(rep report, workload, digest string, update bool) error {
	data := goldenJSON
	if update {
		// The embedded copy is stale when several workloads update in turn.
		fresh, err := os.ReadFile(goldenPath)
		if err == nil {
			data = fresh
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	golden := map[string]string{}
	if err := json.Unmarshal(data, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	if !update {
		rep.info("digest_changed", golden[workload] != digest)
		return nil
	}
	golden[workload] = digest
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	rep.info("digest_changed", "golden updated")
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}

// ---- all workloads, one process each -----------------------------------------

// childRun is what runAll keeps of one child process.
type childRun struct {
	metrics map[string]float64
	exact   map[string]string // sim_digest and counts: must repeat exactly
}

// runChild runs one workload in a process of its own (peak_rss_mb is a
// per-process high-water mark), relays its output and parses it back.
func runChild(out io.Writer, o options, workload string) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds)}
	if o.traced {
		args = append(args, "-trace", "1")
		if o.traceOut != "" {
			dir, file := filepath.Split(o.traceOut)
			args = append(args, "-trace-out", dir+workload+"."+file)
		}
	}
	if o.quick {
		args = append(args, "-quick")
	}
	if o.updateGolden {
		args = append(args, "-update-golden")
	}
	cmd := exec.Command(exe, args...)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(out, &buf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	c := &childRun{metrics: map[string]float64{}, exact: map[string]string{}}
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 4 && f[0] == "metric":
			v, err := strconv.ParseFloat(f[3], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: %q: %w", workload, line, err)
			}
			c.metrics[f[2]] = v
		case len(f) == 4 && f[0] == "info" && (f[2] == "sim_digest" || strings.HasPrefix(f[2], "count.")):
			c.exact[f[2]] = f[3]
		}
	}
	return c, nil
}

func runAll(out io.Writer, o options) error {
	names := []string{}
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	sets := make([]map[string]*childRun, o.sets)
	for s := range sets {
		sets[s] = map[string]*childRun{}
		for _, name := range names {
			if o.sets > 1 {
				fmt.Fprintf(out, "# set %d of %d\n", s+1, o.sets)
			}
			c, err := runChild(out, o, name)
			if err != nil {
				return err
			}
			sets[s][name] = c
		}
	}
	if o.sets > 1 && !o.traced {
		return spreadTable(out, names, sets)
	}
	return nil
}

// spreadTable prints, per workload and end-to-end metric, each set's
// value, the spread between sets relative to their median, and whether
// that is inside the metric's bound. A spread wider than the bound
// means a comparison on that metric is unresolved, not unchanged.
func spreadTable(out io.Writer, names []string, sets []map[string]*childRun) error {
	fmt.Fprintf(out, "\n%-13s %-18s %-8s %-6s %-10s values\n", "workload", "metric", "spread", "bound", "verdict")
	var mismatches []string
	for _, name := range names {
		for _, m := range endToEnd {
			var vals []float64
			for _, s := range sets {
				vals = append(vals, s[name].metrics[m.name])
			}
			lo, hi := vals[0], vals[0]
			for _, v := range vals {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			spread := (hi - lo) / median(vals)
			verdict := "resolved"
			if spread > m.bound {
				verdict = "unresolved"
			}
			fmt.Fprintf(out, "%-13s %-18s %-8.4f %-6.2f %-10s %.6g\n", name, m.name, spread, m.bound, verdict, vals)
		}
		for key, want := range sets[0][name].exact {
			for i, s := range sets[1:] {
				if got := s[name].exact[key]; got != want {
					mismatches = append(mismatches, fmt.Sprintf("%s %s: set 1 %s, set %d %s", name, key, want, i+2, got))
				}
			}
		}
	}
	if len(mismatches) > 0 {
		slices.Sort(mismatches)
		return fmt.Errorf("simulated outputs differ between sets of the same code:\n  %s", strings.Join(mismatches, "\n  "))
	}
	fmt.Fprintln(out, "sim_digest and every count agree exactly across sets")
	return nil
}
