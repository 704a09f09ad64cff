package harness

import (
	"fmt"
	"math"

	"tango/internal/analytics"
	"tango/internal/core"
	"tango/internal/device"
	"tango/internal/errmetric"
	"tango/internal/refactor"
)

// fig11 reproduces Fig 11: the percentage of the degrees of freedom that
// must be retrieved to satisfy each error bound, per application, for
// both metrics.
func fig11(cfg Config) *Result {
	r := &Result{
		ID:     "fig11",
		Title:  "Percentage of degrees of freedom vs error bound",
		Header: []string{"metric", "bound", "XGC DoF%", "GenASiS DoF%", "CFD DoF%"},
	}
	type variant struct {
		metric errmetric.Kind
		bounds []float64
	}
	for _, v := range []variant{
		{errmetric.NRMSE, NRMSEBounds},
		{errmetric.PSNR, PSNRBounds},
	} {
		// One hierarchy per app with the full ladder; the decompositions
		// are independent, so they build as parallel pool jobs.
		hs := fanOut("fig11/"+v.metric.String(), appsUnderTest(), func(app analytics.App) *refactor.Hierarchy {
			return appHierarchy(app, cfg, refactor.Options{
				Levels: refactor.LevelsForRatio(16, 2, 2),
				Metric: v.metric,
				Bounds: v.bounds,
			})
		})
		for _, bound := range v.bounds {
			row := []string{v.metric.String(), fmt.Sprintf("%g", bound)}
			for _, h := range hs {
				row = append(row, fmt.Sprintf("%.1f%%", 100*h.DoFFraction(rung(h, bound))))
			}
			r.Add(row...)
		}
	}
	r.Notef("DoF%% counts the base representation plus retrieved augmentation entries over all original points.")
	return r
}

// fig12 reproduces Fig 12: average I/O time of cross-layer vs
// single-layer (storage) as interfering containers are added 3 → 6
// (containers #1–#3 first, then #4, #5, #6 — Table IV).
func fig12(cfg Config) *Result {
	r := &Result{
		ID:     "fig12",
		Title:  "Performance vs noise intensity (XGC, p=10, NRMSE 0.01; avg I/O time ± std, s)",
		Header: []string{"noises", "cross-layer", "single-layer/storage"},
	}
	app := analytics.XGCApp()
	h := appHierarchy(app, cfg, defaultOpts())
	type run struct {
		n int
		p core.Policy
	}
	var runs []run
	for n := 3; n <= 6; n++ {
		runs = append(runs, run{n, core.CrossLayer}, run{n, core.StorageOnly})
	}
	cells := fanOut("fig12", runs, func(v run) string {
		sc := core.Config{ErrorControl: true, Bound: 0.01, Priority: 10, Policy: v.p}
		return ioCell(runOne(app.Name, v.n, h, cfg, sc).Summary(cfg.SkipWarmup))
	})
	for i := 0; i < len(cells); i += 2 {
		r.Add(fmt.Sprintf("%d", runs[i].n), cells[i], cells[i+1])
	}
	r.Notef("Cross-layer stays nearly flat; the storage-only mean and variance degrade with noise intensity (Fig 12's observation).")
	return r
}

// latencyToBound averages StepStats.TimeToBound for the rung of bound
// over the measured steps that reached it.
func latencyToBound(sess *core.Session, h *refactor.Hierarchy, bound float64, skip int) float64 {
	cur := rung(h, bound)
	var sum float64
	var n int
	for _, st := range measured(sess, skip) {
		if lt := st.TimeToBound(cur); !math.IsNaN(lt) {
			sum += lt
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// fig13 reproduces Fig 13: the latency to retrieve the augmentation that
// elevates the accuracy to ε₁ = 0.01, as the weight function
// progressively incorporates cardinality, priority, and accuracy —
// against the single-layer (application) baseline.
func fig13(cfg Config) *Result {
	r := &Result{
		ID:     "fig13",
		Title:  "Latency to elevate accuracy to 0.01 NRMSE (p=10; avg s)",
		Header: []string{"app", "single-layer", "cardinality", "card+priority", "card+prio+accuracy"},
	}
	full := core.Config{Policy: core.CrossLayer, ErrorControl: true, Bound: 0.01, Priority: 10}
	single, card, cardPrio := full, full, full
	single.Policy = core.AppOnly
	card.DisablePriorityTerm, card.DisableAccuracyTerm = true, true
	cardPrio.DisableAccuracyTerm = true
	cols := []core.Config{single, card, cardPrio, full}
	addRows(r, appsUnderTest(), func(app analytics.App) []string {
		h := appHierarchy(app, cfg, defaultOpts())
		lat := fanOut("fig13/"+app.Name, cols, func(sc core.Config) string {
			return fmtS(latencyToBound(runOne(app.Name, 6, h, cfg, sc), h, 0.01, cfg.SkipWarmup))
		})
		return append([]string{app.Name}, lat...)
	})
	r.Notef("Cardinality-only equals single-layer storage adaptivity (paper note under Fig 13).")
	return r
}

// sweepIO fills r with one row per application: the cross-layer mean±std
// I/O time under each of cols, one column per config.
func sweepIO(r *Result, cfg Config, cols []core.Config) {
	addRows(r, appsUnderTest(), func(app analytics.App) []string {
		h := appHierarchy(app, cfg, defaultOpts())
		cells := fanOut(r.ID+"/"+app.Name, cols, func(sc core.Config) string {
			return ioCell(runOne(app.Name, 6, h, cfg, sc).Summary(cfg.SkipWarmup))
		})
		return append([]string{app.Name}, cells...)
	})
}

// fig14a reproduces Fig 14a: cross-layer average I/O time at ε = 0.01 for
// priorities 1, 5, 10.
func fig14a(cfg Config) *Result {
	r := &Result{
		ID:     "fig14a",
		Title:  "Impact of priority (NRMSE 0.01; avg I/O time ± std, s)",
		Header: []string{"app", "p=1", "p=5", "p=10"},
	}
	var cols []core.Config
	for _, p := range []float64{1, 5, 10} {
		cols = append(cols, core.Config{Policy: core.CrossLayer, ErrorControl: true, Bound: 0.01, Priority: p})
	}
	sweepIO(r, cfg, cols)
	r.Notef("Doubling priority does not halve I/O time: weight shares are relative (paper's 100→200 weight example yields 100→133 MB/s).")
	return r
}

// fig14b reproduces Fig 14b: cross-layer average I/O time at p = 10
// across error bounds.
func fig14b(cfg Config) *Result {
	r := &Result{
		ID:     "fig14b",
		Title:  "Impact of error bound (p=10; avg I/O time ± std, s)",
		Header: []string{"app", "eps=1e-1", "eps=1e-2", "eps=1e-3", "eps=1e-4"},
	}
	var cols []core.Config
	for _, eps := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
		cols = append(cols, core.Config{Policy: core.CrossLayer, ErrorControl: true, Bound: eps, Priority: 10})
	}
	sweepIO(r, cfg, cols)
	r.Notef("Tighter bounds force larger mandatory retrievals, raising I/O time.")
	return r
}

// fig15 reproduces Fig 15: the weight assignment over time for XGC in the
// window 1800–1950 s (p=10, target NRMSE 0.01): within each step the
// accuracy rises 1e-2 → 1e-4 and the weight is lowered accordingly.
func fig15(cfg Config) *Result {
	r := &Result{
		ID:     "fig15",
		Title:  "Weight assignment across time (XGC, p=10, target NRMSE 0.01)",
		Header: []string{"t(s)", "accuracy", "weight", "bucket entries"},
	}
	app := analytics.XGCApp()
	h := appHierarchy(app, cfg, defaultOpts())
	sc := core.Config{Policy: core.CrossLayer, ErrorControl: true, Bound: 1e-4, Priority: 10}
	sess := runOne(app.Name, 6, h, cfg, sc)
	for _, st := range sess.Stats() {
		if st.Start < 1800 || st.Start >= 1980 {
			continue
		}
		for _, b := range st.Buckets {
			if b.Weight == 0 {
				continue
			}
			r.Add(fmt.Sprintf("%.1f", b.Start), fmt.Sprintf("%g", b.Bound),
				fmt.Sprintf("%d", b.Weight), fmt.Sprintf("%d", b.To-b.From))
		}
	}
	r.Notef("The target bound is set to 1e-4 so each step walks the ladder 1e-1→1e-4; weight decreases as accuracy tightens (the design favors low accuracy).")
	return r
}

// fig16 reproduces Fig 16: weak scaling. Tango's recomposition needs no
// inter-node communication, so per-node average I/O time stays flat from
// 1 to 4 nodes. Node simulations run on real parallel goroutines.
func fig16(cfg Config) *Result {
	r := &Result{
		ID:     "fig16",
		Title:  "Weak scaling (p=10, NRMSE 0.01; per-node avg I/O time, s)",
		Header: []string{"nodes", "mean of per-node avg I/O", "max deviation across nodes"},
	}
	app := analytics.XGCApp()
	h := appHierarchy(app, cfg, defaultOpts())
	for nodes := 1; nodes <= 4; nodes++ {
		names := make([]string, nodes)
		for i := range names {
			names[i] = fmt.Sprintf("xgc-node%d", i)
		}
		means := fanOut("fig16", names, func(name string) float64 {
			sc := core.Config{Policy: core.CrossLayer, ErrorControl: true, Bound: 0.01, Priority: 10}
			return runOne(name, 6, h, cfg, sc).Summary(cfg.SkipWarmup).MeanIO
		})
		var sum, maxDev float64
		for _, m := range means {
			sum += m
		}
		mean := sum / float64(nodes)
		for _, m := range means {
			if d := math.Abs(m - mean); d > maxDev {
				maxDev = d
			}
		}
		r.Add(fmt.Sprintf("%d", nodes), fmtS(mean), fmtS(maxDev))
	}
	r.Notef("Each node is an independent simulation run on its own goroutine (embarrassingly parallel, as in the paper).")
	return r
}

// headline aggregates the Fig 8 data into the paper's headline claim:
// I/O performance improvement of cross-layer vs no adaptivity and vs the
// best single-layer approach.
func headline(cfg Config) *Result {
	r := &Result{
		ID:     "headline",
		Title:  "Headline improvement (from Fig 8 conditions)",
		Header: []string{"app", "vs no-adaptivity", "vs best single-layer"},
	}
	type imp struct{ no, single float64 }
	apps := appsUnderTest()
	imps := fanOut("headline", apps, func(app analytics.App) imp {
		h := appHierarchy(app, cfg, defaultOpts())
		s := policySummaries(app, h, cfg, core.Config{})
		cross := s[core.CrossLayer].MeanIO
		noAd := s[core.NoAdapt].MeanIO
		single := math.Min(s[core.StorageOnly].MeanIO, s[core.AppOnly].MeanIO)
		return imp{100 * (1 - cross/noAd), 100 * (1 - cross/single)}
	})
	var aggNo, aggSingle, n float64
	for i, v := range imps {
		aggNo += v.no
		aggSingle += v.single
		n++
		r.Add(apps[i].Name, fmt.Sprintf("%.0f%%", v.no), fmt.Sprintf("%.0f%%", v.single))
	}
	r.Add("mean", fmt.Sprintf("%.0f%%", aggNo/n), fmt.Sprintf("%.0f%%", aggSingle/n))
	r.Notef("Paper reports 52%% vs no adaptivity and 36%% vs single-layer on Chameleon; shape (ordering and rough magnitude), not absolute numbers, is the reproduction target.")
	return r
}

// ablationNoSeekThrash removes the HDD's concurrency-collapse term: the
// advantage of application adaptivity over storage-only weight
// redistribution shrinks, confirming the model ingredient behind Fig 8's
// explanation ("weight adjustment only re-distributes bandwidth").
func ablationNoSeekThrash(cfg Config) *Result {
	r := &Result{
		ID:     "ablation-seek",
		Title:  "Ablation: HDD seek-thrash term (XGC, no error control)",
		Header: []string{"HDD model", "storage-only", "cross-layer", "cross/storage"},
	}
	app := analytics.XGCApp()
	h := appHierarchy(app, cfg, defaultOpts())
	type run struct {
		variant string
		hdd     device.Params
		p       core.Policy
	}
	var runs []run
	for _, variant := range []string{"with seek thrash", "no seek thrash"} {
		hdd := hddParamsReal()
		if variant == "no seek thrash" {
			hdd = hddParamsNoThrash()
		}
		runs = append(runs, run{variant, hdd, core.StorageOnly}, run{variant, hdd, core.CrossLayer})
	}
	means := fanOut("ablation-seek", runs, func(v run) float64 {
		scen := newScenarioWithHDD("abl", 6, v.hdd)
		return runOnScenario(scen, app.Name, h, cfg, core.Config{Policy: v.p}).Summary(cfg.SkipWarmup).MeanIO
	})
	for i := 0; i < len(means); i += 2 {
		st, cr := means[i], means[i+1]
		r.Add(runs[i].variant, fmtS(st), fmtS(cr), fmt.Sprintf("%.2f", cr/st))
	}
	r.Notef("Without the thrash term the gap narrows: weight redistribution alone suffices when total throughput never collapses.")
	return r
}

// ablationUnsortedBuckets disables the magnitude ordering of augmentation
// entries (paper §III-B2 step 3) and measures how many more entries each
// bound needs — the ingredient behind Fig 11's feasibility.
func ablationUnsortedBuckets(cfg Config) *Result {
	r := &Result{
		ID:     "ablation-sort",
		Title:  "Ablation: magnitude-ordered buckets (XGC, NRMSE ladder)",
		Header: []string{"bound", "sorted DoF%", "unsorted DoF%", "inflation"},
	}
	app := analytics.XGCApp()
	hs := fanOut("ablation-sort", []bool{false, true}, func(noSort bool) *refactor.Hierarchy {
		opts := defaultOpts()
		opts.NoSort = noSort
		return appHierarchy(app, cfg, opts)
	})
	sorted, unsorted := hs[0], hs[1]
	for _, bound := range []float64{1e-1, 1e-2, 1e-3} {
		ds := sorted.DoFFraction(rung(sorted, bound))
		du := unsorted.DoFFraction(rung(unsorted, bound))
		r.Add(fmt.Sprintf("%g", bound),
			fmt.Sprintf("%.1f%%", 100*ds), fmt.Sprintf("%.1f%%", 100*du),
			fmt.Sprintf("%.2fx", du/ds))
	}
	r.Notef("Descending-|value| ordering reaches each bound with fewer retrieved entries.")
	return r
}
