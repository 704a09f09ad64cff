// Package harness defines one runnable experiment per table and figure of
// the paper's evaluation (§IV), sharing a common scenario builder: a
// two-tier node (SSD + HDD), the Table IV interference set, and the three
// applications' refactored datasets. Each experiment returns a Result —
// the same rows/series the paper reports — that cmd/tangobench prints and
// the root bench suite regenerates.
package harness

import (
	"cmp"
	"fmt"
	"math"
	"strings"
	"sync"

	"tango/internal/analytics"
	"tango/internal/errmetric"
	"tango/internal/refactor"
	"tango/internal/tensor"
)

// Config sets experiment scale. Zero values take defaults tuned so the
// full suite runs in seconds while preserving the paper's operating
// regime (per-step retrievals of a few MB against multi-hundred-MB
// periodic checkpoints on a ~100 MB/s capacity tier).
type Config struct {
	// GridN is the side of the (GridN × GridN) analysis fields
	// (default 513; use 1025+ for paper-scale runs).
	GridN int
	// Seed drives all synthetic data and noise randomness (default 42).
	Seed int64
	// Steps is the number of analysis steps per session (default 90:
	// 30 warm-up + 60 measured at the paper's 60 s period).
	Steps int
	// SkipWarmup drops this many leading steps from summaries
	// (default 30, the paper's estimation period).
	SkipWarmup int
	// DatasetMB is the staged on-disk size of each application's
	// refactored dataset (default 2048 MB — the paper's production
	// meshes hold ~60–95M elements, i.e. GB-scale payloads whose
	// retrieval occupies a significant part of each 60 s analysis
	// period). The grid is staged at the payload scale that reaches
	// this size; see staging.StageScaled.
	DatasetMB float64
	// FleetScale multiplies the fleet experiment's canonical sweep
	// (10→1000 nodes, 100→100k sessions). Default 1; tests and quick
	// runs use small fractions (e.g. 0.02). Other experiments ignore it.
	FleetScale float64
}

// WithDefaults fills every zero field with its default.
func (c Config) WithDefaults() Config {
	if c.GridN == 0 {
		c.GridN = 513
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Steps == 0 {
		c.Steps = 90
	}
	if c.SkipWarmup == 0 {
		c.SkipWarmup = 30
	}
	if c.DatasetMB == 0 {
		c.DatasetMB = 2048
	}
	if c.FleetScale == 0 {
		c.FleetScale = 1
	}
	return c
}

// minGridN is the smallest field side the default decomposition
// (defaultOpts: three levels at decimation 2, 3 → 2 → 1) takes without
// clamping its levels.
const minGridN = 3

// Validate reports the first reason a filled-in config cannot run, naming
// the tangobench flag that sets the field. The experiments index
// Stats()[SkipWarmup:] and size fields by GridN, so a config that fails
// here panics or prints empty summaries further in.
func (c Config) Validate() error {
	finite := func(v float64) bool { return v > 0 && !math.IsInf(v, 1) }
	switch {
	case c.SkipWarmup < 0:
		return fmt.Errorf("-skip %d: warm-up steps cannot be negative", c.SkipWarmup)
	case c.Steps <= c.SkipWarmup:
		return fmt.Errorf("-steps %d: no measured step is left after %d warm-up steps", c.Steps, c.SkipWarmup)
	case c.GridN < minGridN:
		return fmt.Errorf("-grid %d: the default decomposition needs a side of at least %d", c.GridN, minGridN)
	case !finite(c.DatasetMB) || c.DatasetMB > 512*1024: // staging puts up to half on the 400 GB SSD
		return fmt.Errorf("-dataset %g: want a size above 0 MB that the tiers hold (at most 524288)", c.DatasetMB)
	case !finite(c.FleetScale):
		return fmt.Errorf("-fleetscale %g: want a finite scale above 0", c.FleetScale)
	}
	return cmp.Or(budget(fmt.Sprint("-grid ", c.GridN), float64(c.GridN)*float64(c.GridN)*bytesPerPoint),
		budget(fmt.Sprint("-steps ", c.Steps), float64(c.Steps)*bytesPerStep),
		budget(fmt.Sprint("-fleetscale ", c.FleetScale), c.FleetScale*fleetBytes(1000, 100_000)))
}

// runBudget is the memory a run may need, by its sizes' estimate; a spec
// past it is refused before anything is built.
const runBudget = 8 << 30

// What a run holds per unit of each size: twice the live heap gctrace
// read (the heap grows to twice its live data at GOGC=100) — 36 B a grid
// point at 2049², a 136-byte core.StepStats a step, and 8 KiB a node and
// 1 KiB a session at 1000 nodes and 50,000 sessions.
const (
	bytesPerPoint, bytesPerStep   = 72, 272
	bytesPerNode, bytesPerSession = 16 << 10, 2 << 10
)

// fleetBytes is a cluster's estimate.
func fleetBytes(nodes, sessions float64) float64 {
	return nodes*bytesPerNode + sessions*bytesPerSession
}

// budget refuses the size flags names if its estimate, bytes, passes
// runBudget.
func budget(flags string, bytes float64) error {
	if bytes <= runBudget {
		return nil
	}
	return fmt.Errorf("%s: needs ~%.0f GiB, over the %d GiB a run may use", flags, bytes/(1<<30), runBudget>>30)
}

// Default NRMSE and PSNR ladders used across experiments.
var (
	NRMSEBounds = []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5}
	PSNRBounds  = []float64{30, 40, 50, 60, 70, 80}
)

// Result is a generic experiment output table.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row.
func (r *Result) Add(cells ...string) { r.Rows = append(r.Rows, cells) }

// Notef appends a formatted note.
func (r *Result) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is a named, runnable reproduction of one table or figure.
type Experiment struct {
	ID    string
	Title string
	run   func(Config) *Result
}

// Run is the one place experiments are entered: the body reads every
// field of cfg as given, so the defaults are filled here.
func (e Experiment) Run(cfg Config) *Result { return e.run(cfg.WithDefaults()) }

// Experiments returns the full suite in the paper's order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "QoS in HPC file systems (survey, Table I)", table1},
		{"fig1", "Equal static blkio weights do not isolate (Fig 1)", fig01},
		{"fig2", "Accuracy of reduced representations (Fig 2)", fig02},
		{"fig7", "DFT-based interference estimation (Fig 7)", fig07},
		{"fig8", "Cross-layer vs single-layer, no error control (Fig 8)", fig08},
		{"fig9", "Interference mitigation with error control (Fig 9)", fig09},
		{"fig10", "Data quality of analysis outcomes (Fig 10)", fig10},
		{"fig11", "Degrees of freedom vs error bound (Fig 11)", fig11},
		{"fig12", "Sensitivity to noise intensity (Fig 12)", fig12},
		{"fig13", "Weight-function ablation latency (Fig 13)", fig13},
		{"fig14a", "Impact of priority (Fig 14a)", fig14a},
		{"fig14b", "Impact of error bound (Fig 14b)", fig14b},
		{"fig15", "Weight assignment across time (Fig 15)", fig15},
		{"fig16", "Weak scaling across nodes (Fig 16)", fig16},
		{"headline", "Headline improvement vs baselines (§I, §IV)", headline},
		{"ablation-seek", "Ablation: HDD seek-thrash model (DESIGN.md #1)", ablationNoSeekThrash},
		{"ablation-sort", "Ablation: magnitude-ordered buckets (DESIGN.md #3)", ablationUnsortedBuckets},
		{"ablation-parallel", "Extension: parallel tier reads", ablationParallelReads},
		{"coexist", "Extension: concurrent analytics with priorities", coexist},
		{"regime", "Extension: interference regime change", regime},
		{"throttle", "Extension: static throttling vs Tango", throttleVsTango},
		{"coordinated", "Extension: node-level weight coordination", coordinated},
		{"ablation-fifo", "Ablation: FIFO vs proportional-share scheduling", ablationFIFO},
		{"random-noise", "Extension: DFT robustness to aperiodic noise", randomNoiseRobustness},
		{"tracking", "Extension: blob dynamics on reduced data", tracking},
		{"chaos", "Extension: fault injection and cross-layer recovery", chaos},
		{"prefetch", "Extension: predictive fast-tier cache + prefetcher", prefetch},
		{"resil", "Extension: resilience control plane (retries, breakers, hedging)", resilExp},
		{"fleet", "Extension: fleet-scale cluster with object-store capacity tier", fleetExp},
		{"tokens", "Extension: decentralized token-bucket weight control", tokens},
	}
}

// Lookup finds an experiment by ID. An unknown ID's error names the
// closest registered experiment (by edit distance) before pointing at
// -list.
func Lookup(id string) (Experiment, error) {
	best, bestDist := "", -1
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
		if d := editDistance(id, e.ID); bestDist < 0 || d < bestDist {
			best, bestDist = e.ID, d
		}
	}
	if best != "" && bestDist <= (len(id)+1)/2 {
		return Experiment{}, fmt.Errorf("unknown experiment %q (did you mean %q? use -list for all)", id, best)
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q (use -list)", id)
}

// editDistance is the Levenshtein distance between two ASCII IDs.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(min(cur[j-1]+1, prev[j]+1), prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// hierKey memoizes decompositions: they are deterministic, read-only at
// analysis time, and by far the most expensive setup step.
type hierKey struct {
	app    string
	n      int
	seed   int64
	levels int
	metric errmetric.Kind
	bounds string
	noSort bool
}

// memo is a single-flight cache: get stores a sync.OnceValue of the
// compute under the key, and the first caller runs it. Concurrent callers
// with the same key block in the same OnceValue instead of duplicating
// the work (two parallel scenarios must not each decompose the same
// hierarchy).
type memo[V any] struct{ sync.Map } // hierKey → func() V

func (c *memo[V]) get(key hierKey, compute func() V) V {
	f, _ := c.LoadOrStore(key, sync.OnceValue(compute))
	return f.(func() V)()
}

var (
	fieldCache memo[*tensor.Tensor]
	statsCache memo[errmetric.Stats]
	hierCache  memo[*refactor.Hierarchy]
)

// appField returns the app's (memoized) synthetic field.
func appField(app analytics.App, cfg Config) *tensor.Tensor {
	key := hierKey{app: app.Name, n: cfg.GridN, seed: cfg.Seed}
	return fieldCache.get(key, func() *tensor.Tensor { return app.Generate(cfg.GridN, cfg.Seed) })
}

// appStats returns the (memoized) reference statistics of the app's
// field, so figures that measure many reconstructions against it (Fig 2's
// PSNR table) scan the reference once per field instead of once per
// ratio. Stats are order-independent, so the derived metrics are
// bit-identical to the unmemoized free functions.
func appStats(app analytics.App, cfg Config) errmetric.Stats {
	key := hierKey{app: app.Name, n: cfg.GridN, seed: cfg.Seed}
	return statsCache.get(key, func() errmetric.Stats { return errmetric.NewStats(appField(app, cfg).Data()) })
}

// appHierarchy decomposes (memoized) the app's field.
func appHierarchy(app analytics.App, cfg Config, opts refactor.Options) *refactor.Hierarchy {
	key := hierKey{
		app: app.Name, n: cfg.GridN, seed: cfg.Seed,
		levels: opts.Levels, metric: opts.Metric,
		bounds: fmt.Sprint(opts.Bounds), noSort: opts.NoSort,
	}
	return hierCache.get(key, func() *refactor.Hierarchy {
		h, err := refactor.Decompose(appField(app, cfg), opts)
		if err != nil {
			panic(fmt.Sprintf("harness: decompose %s: %v", app.Name, err))
		}
		return h
	})
}

// fmtMB formats bytes/s as MB/s.
func fmtMB(bps float64) string { return fmt.Sprintf("%.1f", bps/(1024*1024)) }

// fmtS formats seconds.
func fmtS(s float64) string { return fmt.Sprintf("%.4f", s) }
