package harness

import (
	"fmt"

	"tango/internal/analytics"
	"tango/internal/core"
	"tango/internal/device"
	"tango/internal/refactor"
	"tango/internal/synth"
	"tango/internal/tensor"
	"tango/internal/workload"
)

// throttleVsTango contrasts the QoS mechanism the file systems of Table I
// offer — static administrator-set throttling of the interferers — with
// Tango's cross-layer adaptation. On rotational media throttling
// backfires: capping each checkpoint's rate stretches its write window,
// raising the duty cycle of contention and the number of concurrently
// active streams (seek thrash), so the analytics gets slower even though
// every individual interferer is "tamed". Tango needs no administrator
// action and adapts at runtime (Motivations 1/2).
func throttleVsTango(cfg Config) *Result {
	r := &Result{
		ID:     "throttle",
		Title:  "Static throttling (Table I style) vs Tango (XGC, NRMSE 0.01)",
		Header: []string{"mechanism", "analytics mean I/O (s)", "noise throughput (MB/s)"},
	}
	app := analytics.XGCApp()
	h := appHierarchy(app, cfg, defaultOpts())

	type arm struct {
		label       string
		throttleBps float64
		policy      core.Policy
	}
	addRows(r, []arm{
		{"none (baseline)", 0, core.NoAdapt},
		{"admin throttles noise to 10 MB/s each", 10 * device.MB, core.NoAdapt},
		{"tango cross-layer (no admin action)", 0, core.CrossLayer},
	}, func(a arm) []string {
		scen := NewScenario("qos", 6)
		if a.throttleBps > 0 {
			for _, n := range workload.PaperNoiseSet() {
				if c := scen.Node.Container(n.Name); c != nil {
					c.Cgroup().SetWriteBpsLimit(a.throttleBps)
				}
			}
		}
		sc := core.Config{Policy: a.policy, ErrorControl: true, Bound: 0.01, Priority: 10}
		sess := runOnScenario(scen, app.Name, h, cfg, sc)
		var noiseBytes float64
		for _, n := range workload.PaperNoiseSet() {
			if c := scen.Node.Container(n.Name); c != nil {
				noiseBytes += c.Cgroup().BytesWritten()
			}
		}
		elapsed := scen.Node.Engine().Now()
		return []string{a.label, fmtS(sess.Summary(cfg.SkipWarmup).MeanIO),
			fmt.Sprintf("%.1f", noiseBytes/elapsed/device.MB)}
	})
	r.Notef("Static throttling stretches each checkpoint's write window (1 GB at 10 MB/s holds the disk ~100 s), so interference becomes near-continuous and seek thrash collapses aggregate throughput — the analytics gets SLOWER. Tango improves the analytics without admin action and without taxing the checkpoints.")
	return r
}

// randomNoiseRobustness tests the §II claim that non-recurrent random
// activity (compilation, shell commands) is low-impact and is filtered
// out by DFT thresholding: adding an aperiodic writer barely moves the
// thresholded estimator's accuracy, while an unthresholded fit chases the
// noise.
func randomNoiseRobustness(cfg Config) *Result {
	r := &Result{
		ID:     "random-noise",
		Title:  "DFT thresholding filters aperiodic noise (XGC probe run)",
		Header: []string{"thresh", "MAE periodic-only (MB/s)", "MAE +aperiodic (MB/s)", "perturbation"},
	}
	app := analytics.XGCApp()
	h := appHierarchy(app, cfg, defaultOpts())
	series := fanOut("random-noise", []bool{false, true}, func(withRandom bool) []float64 {
		scen := NewScenario("rnd", 4)
		if withRandom {
			workload.RandomNoise(scen.Node, scen.HDD, "adhoc", 25, 8*device.MB, 64*device.MB, 77)
		}
		return slowBW(runOnScenario(scen, app.Name, h, cfg, core.Config{Policy: core.NoAdapt, Steps: 60}))
	})
	clean, noisy := series[0], series[1]
	for _, frac := range []float64{0, 0.5} {
		mc := holdoutMAE(clean, frac)
		mn := holdoutMAE(noisy, frac)
		r.Add(fmt.Sprintf("%.0f%%", frac*100), fmtMB(mc), fmtMB(mn),
			fmt.Sprintf("+%.1f MB/s", (mn-mc)/device.MB))
	}
	r.Notef("The claim under test (§II): aperiodic activity is filtered by thresholding. The perturbation column — how much the aperiodic writer degrades prediction — is smaller with the 50%% threshold than without it.")
	return r
}

// ablationFIFO replaces the HDD's proportional-share scheduler with FIFO
// head-of-line service. FIFO ignores cgroup weights entirely, so the
// storage layer loses its control knob and cross-layer degenerates to
// application-only adaptivity — why Tango presumes the "Ext4 with
// cgroups" row of Table I (proportional-share semantics) as its
// substrate.
func ablationFIFO(cfg Config) *Result {
	r := &Result{
		ID:     "ablation-fifo",
		Title:  "Ablation: FIFO removes the storage-layer knob (XGC, NRMSE 0.01, p=10)",
		Header: []string{"scheduler", "app-only mean I/O (s)", "cross-layer mean I/O (s)", "cross-layer gain"},
	}
	app := analytics.XGCApp()
	h := appHierarchy(app, cfg, defaultOpts())
	type run struct {
		sched  device.Scheduler
		policy core.Policy
	}
	var runs []run
	for _, sched := range []device.Scheduler{device.ProportionalShare, device.FIFO} {
		runs = append(runs, run{sched, core.AppOnly}, run{sched, core.CrossLayer})
	}
	means := fanOut("ablation-fifo", runs, func(v run) float64 {
		hdd := device.HDD("hdd")
		hdd.Scheduler = v.sched
		scen := newScenarioWithHDD("fifo", 6, hdd)
		sc := core.Config{Policy: v.policy, ErrorControl: true, Bound: 0.01, Priority: 10}
		return runOnScenario(scen, app.Name, h, cfg, sc).Summary(cfg.SkipWarmup).MeanIO
	})
	for i := 0; i < len(means); i += 2 {
		appOnly, cross := means[i], means[i+1]
		r.Add(runs[i].sched.String(), fmtS(appOnly), fmtS(cross),
			fmt.Sprintf("%.0f%%", 100*(1-cross/appOnly)))
	}
	r.Notef("Under FIFO the weight function has nothing to act on, so the cross-layer gain over application-only adaptivity collapses; proportional share is the substrate assumption.")
	return r
}

// tracking extends Fig 2's static accuracy story to blob DYNAMICS, the
// physics the XGC analysis actually chases: blobs are tracked across a
// short sequence of frames, on full data versus bound-controlled
// reconstructions. The temporal statistics (track count, persistence,
// convective speed) survive moderate bounds.
func tracking(cfg Config) *Result {
	r := &Result{
		ID:     "tracking",
		Title:  "Blob tracking on reduced data (XGC sequence, 6 frames)",
		Header: []string{"data", "tracks", "mean length", "mean speed", "outcome err"},
	}
	opts := synth.DefaultXGC(min(cfg.GridN, 257), cfg.Seed)
	opts.Blobs = 8
	frames, _ := synth.XGCSequence(opts, 6, 1.5)
	o := analytics.DefaultBlobOptions()
	ref := analytics.SummarizeTracks(analytics.TrackBlobs(frames, o, 8), 2)
	r.Add("full", fmt.Sprintf("%d", ref.Tracks), fmt.Sprintf("%.1f", ref.MeanLength),
		fmt.Sprintf("%.2f", ref.MeanSpeed), "0.0000")

	addRows(r, []float64{0.05, 0.1}, func(bound float64) []string {
		var reduced []*tensor.Tensor
		for _, f := range frames {
			h, err := refactor.Decompose(f, refactor.Options{Levels: 3, Bounds: []float64{bound}})
			if err != nil {
				panic(err)
			}
			reduced = append(reduced, h.Recompose(rung(h, bound)))
		}
		st := analytics.SummarizeTracks(analytics.TrackBlobs(reduced, o, 8), 2)
		return []string{fmt.Sprintf("NRMSE %g", bound), fmt.Sprintf("%d", st.Tracks),
			fmt.Sprintf("%.1f", st.MeanLength), fmt.Sprintf("%.2f", st.MeanSpeed),
			fmt.Sprintf("%.4f", st.RelErrVs(ref))}
	})
	r.Notef("Greedy nearest-centroid tracking, gate 8 cells/frame; blobs drift 1.5 cells/frame.")
	return r
}
