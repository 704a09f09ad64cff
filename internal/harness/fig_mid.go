package harness

import (
	"fmt"
	"math"

	"tango/internal/analytics"
	"tango/internal/core"
	"tango/internal/dftestim"
	"tango/internal/errmetric"
	"tango/internal/refactor"
	"tango/internal/tensor"
)

// fig07 reproduces Fig 7: the DFT-based estimator is trained on the first
// half of a run's measured bandwidth and predicts the second half, at
// amplitude thresholds of 25%, 50%, and 75%. Higher thresholds discard
// more components and deviate more, but all track the periodic
// interference.
func fig07(cfg Config) *Result {
	r := &Result{
		ID:     "fig7",
		Title:  "DFT-based interference estimation (6 interfering containers)",
		Header: []string{"thresh", "zeroed FCs", "MAE MB/s", "mean measured MB/s", "MAE %"},
	}
	app := analytics.XGCApp()
	h := appHierarchy(app, cfg, defaultOpts())
	// A measurement session: full retrieval each step, 60 steps = 3600 s.
	samples := slowBW(runOne("probe", 6, h, cfg, core.Config{Policy: core.NoAdapt, Steps: 60}))
	train, test := samples[:30], samples[30:]

	var meanBW float64
	for _, bw := range test {
		meanBW += bw
	}
	meanBW /= float64(len(test))

	for _, frac := range []float64{0.25, 0.50, 0.75} {
		mae := holdoutMAE(samples, frac)
		// Count zeroed components for reporting.
		zeroed := dftestim.Threshold(dftestim.FFTReal(train), frac)
		r.Add(fmt.Sprintf("%.0f%%", frac*100), fmt.Sprintf("%d/30", zeroed),
			fmtMB(mae), fmtMB(meanBW), fmt.Sprintf("%.1f%%", 100*mae/meanBW))
	}
	r.Notef("Trained on steps 0–29 (0–1800 s), predicting steps 30–59 (1800–3600 s), as in the paper.")
	return r
}

// policySummaries runs the four policies for one app — as parallel pool
// jobs, each on its own scenario — and returns their summaries indexed by
// policy (core.AllPolicies order, which is the figures' column order).
func policySummaries(app analytics.App, h *refactor.Hierarchy, cfg Config, base core.Config) []core.Summary {
	return fanOut(app.Name, core.AllPolicies(), func(p core.Policy) core.Summary {
		sc := base
		sc.Policy = p
		return runOne(app.Name, 6, h, cfg, sc).Summary(cfg.SkipWarmup)
	})
}

// policyCells is policySummaries as the figures' four mean±std cells.
func policyCells(app analytics.App, h *refactor.Hierarchy, cfg Config, base core.Config) []string {
	var cells []string
	for _, s := range policySummaries(app, h, cfg, base) {
		cells = append(cells, ioCell(s))
	}
	return cells
}

// fig08 reproduces Fig 8: average I/O time and variation of the three
// applications under the four policies, with no error control.
func fig08(cfg Config) *Result {
	r := &Result{
		ID:     "fig8",
		Title:  "Cross-layer vs single-layer, no error control (avg I/O time ± std, s)",
		Header: []string{"app", "no-adapt", "storage-only", "app-only", "cross-layer"},
	}
	addRows(r, appsUnderTest(), func(app analytics.App) []string {
		h := appHierarchy(app, cfg, defaultOpts())
		return append([]string{app.Name}, policyCells(app, h, cfg, core.Config{})...)
	})
	r.Notef("Augmentation driven purely by the estimated storage load (no prescribed bound); %d measured steps after %d warm-up.", cfg.Steps-cfg.SkipWarmup, cfg.SkipWarmup)
	return r
}

// fig09 reproduces Fig 9: the same comparison with error control enforced
// at ε = 0.01 (NRMSE) and ε = 30 dB (PSNR).
func fig09(cfg Config) *Result {
	r := &Result{
		ID:     "fig9",
		Title:  "Interference mitigation with error control (avg I/O time ± std, s)",
		Header: []string{"app", "metric", "no-adapt", "storage-only", "app-only", "cross-layer"},
	}
	type variant struct {
		app   analytics.App
		label string
		opts  refactor.Options
		bound float64
	}
	var variants []variant
	for _, app := range appsUnderTest() {
		variants = append(variants,
			variant{app, "NRMSE 0.01", defaultOpts(), 0.01},
			variant{app, "PSNR 30dB", refactor.Options{Levels: defaultOpts().Levels, Metric: errmetric.PSNR, Bounds: PSNRBounds}, 30})
	}
	addRows(r, variants, func(v variant) []string {
		h := appHierarchy(v.app, cfg, v.opts)
		return append([]string{v.app.Name, v.label},
			policyCells(v.app, h, cfg, core.Config{ErrorControl: true, Bound: v.bound})...)
	})
	r.Notef("No-adapt and storage-only always retrieve the full augmentation, so error control does not constrain them.")
	return r
}

// fig10 reproduces Fig 10: the relative error of the analysis outcome at
// decimation ratio 8192, ε = 0.1 NRMSE, priority 10 — cross-layer vs
// single-layer (application) vs no augmentation at all.
func fig10(cfg Config) *Result {
	r := &Result{
		ID:     "fig10",
		Title:  "Data quality of analysis outcomes (relative error; ratio 8192, eps 0.1 NRMSE, p=10)",
		Header: []string{"app", "cross-layer", "app-only", "no augmentation"},
	}
	opts := refactor.Options{
		Levels: refactor.LevelsForRatio(8192, 2, 2),
		Bounds: []float64{0.1},
	}
	addRows(r, appsUnderTest(), func(app analytics.App) []string {
		orig := appField(app, cfg)
		h := appHierarchy(app, cfg, opts)
		errs := fanOut("fig10/"+app.Name, []core.Policy{core.CrossLayer, core.AppOnly}, func(policy core.Policy) float64 {
			sc := core.Config{ErrorControl: true, Bound: 0.1, Priority: 10, Policy: policy}
			sess := runOne(app.Name, 6, h, cfg, sc)
			// Average the outcome error over the measured steps,
			// memoizing by cursor (many steps share a cursor).
			cache := map[int]float64{}
			var sum float64
			var n int
			for _, st := range measured(sess, cfg.SkipWarmup) {
				e, ok := cache[st.Cursor]
				if !ok {
					e = outcomeAt(app, orig, h, st.Cursor)
					cache[st.Cursor] = e
				}
				sum += e
				n++
			}
			return sum / float64(n)
		})
		noAug := outcomeAt(app, orig, h, 0)
		return []string{app.Name, fmt.Sprintf("%.4f", errs[0]), fmt.Sprintf("%.4f", errs[1]), fmt.Sprintf("%.4f", noAug)}
	})
	r.Notef("Storage-only adaptivity retrieves everything and loses no accuracy, so it is omitted (as in the paper).")
	r.Notef("Both adaptive schemes stay far below the prescribed bound (0.1) while no-augmentation is unusable — the paper's qualitative conclusion. In this reproduction app-only lands slightly lower (its in-band bandwidth samples read higher than cross-layer's default-weight probes, so it retrieves a little more); the paper observed the reverse second-order ordering.")
	return r
}

func outcomeAt(app analytics.App, orig *tensor.Tensor, h *refactor.Hierarchy, cursor int) float64 {
	rec := h.Recompose(cursor)
	e := app.OutcomeErr(orig, rec)
	if math.IsNaN(e) {
		return 1
	}
	return e
}
