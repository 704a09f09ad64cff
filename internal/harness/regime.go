package harness

import (
	"fmt"
	"math"

	"tango/internal/analytics"
	"tango/internal/container"
	"tango/internal/core"
	"tango/internal/device"
	"tango/internal/workload"
)

// regime tests the paper's claim that "when the interference pattern
// changes, the estimation can be re-adjusted" (§III-C step 1): the run
// starts with three interferers, and three more join mid-run. Prediction
// error spikes in the window right after the change (the fitted model is
// stale) and recovers after the next periodic refit.
func regime(cfg Config) *Result {
	r := &Result{
		ID:     "regime",
		Title:  "Estimator re-adjustment under an interference regime change (XGC)",
		Header: []string{"window (steps)", "interferers", "mean |pred-actual| MB/s", "mean I/O (s)"},
	}
	app := analytics.XGCApp()
	h := appHierarchy(app, cfg, defaultOpts())

	// Custom scenario: noises 1-3 from the start, 4-6 join at t=3600 s
	// (step 60).
	node := container.NewNode("regime")
	node.MustAddDevice(device.SSD("ssd"))
	hdd := node.MustAddDevice(device.HDD("hdd"))
	set := workload.PaperNoiseSet()
	const joinAt = 3600.0
	for i, n := range set {
		if i >= 3 {
			n.Phase += joinAt
		}
		workload.LaunchNoise(node, hdd, n)
	}
	scen := &Scenario{Node: node, SSD: node.Device("ssd"), HDD: hdd}

	steps := 120
	sc := core.Config{
		Policy: core.CrossLayer, ErrorControl: true, Bound: 0.01, Priority: 10,
		Steps: steps, RefitEvery: 15, Window: 30,
	}
	sess := runOnScenario(scen, app.Name, h, cfg, sc)

	type window struct {
		label      string
		lo, hi     int
		interferer string
	}
	windows := []window{
		{"30-60 (settled, before change)", 30, 60, "3"},
		{"60-75 (stale model)", 60, 75, "6"},
		{"90-120 (after refits)", 90, 120, "6"},
	}
	for _, w := range windows {
		var absErr, io float64
		var n int
		for _, st := range sess.Stats()[w.lo:w.hi] {
			if st.Predicted > 0 {
				absErr += math.Abs(st.Predicted - st.SlowBW)
			}
			io += st.IOTime
			n++
		}
		r.Add(w.label, w.interferer,
			fmt.Sprintf("%.1f", absErr/float64(n)/(1024*1024)),
			fmtS(io/float64(n)))
	}
	r.Notef("Refits every 15 steps over a 30-step window; the stale-model window shows the largest prediction error, recovering once refits absorb the new regime.")
	return r
}
