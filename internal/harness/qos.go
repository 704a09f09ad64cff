package harness

import (
	"fmt"

	"tango/internal/analytics"
	"tango/internal/core"
	"tango/internal/device"
	"tango/internal/dftestim"
	"tango/internal/refactor"
	"tango/internal/runpool"
	"tango/internal/synth"
	"tango/internal/tensor"
	"tango/internal/workload"
)

// ThrottleVsTango contrasts the QoS mechanism the file systems of Table I
// offer — static administrator-set throttling of the interferers — with
// Tango's cross-layer adaptation. On rotational media throttling
// backfires: capping each checkpoint's rate stretches its write window,
// raising the duty cycle of contention and the number of concurrently
// active streams (seek thrash), so the analytics gets slower even though
// every individual interferer is "tamed". Tango needs no administrator
// action and adapts at runtime (Motivations 1/2).
func ThrottleVsTango(cfg Config) *Result {
	cfg = cfg.withDefaults()
	r := &Result{
		ID:     "throttle",
		Title:  "Static throttling (Table I style) vs Tango (XGC, NRMSE 0.01)",
		Header: []string{"mechanism", "analytics mean I/O (s)", "noise throughput (MB/s)"},
	}
	app := analytics.XGCApp()
	h := appHierarchy(app, cfg, defaultOpts())

	run := func(throttleBps float64, policy core.Policy) (float64, float64) {
		scen := NewScenario("qos", 6)
		if throttleBps > 0 {
			for _, n := range workload.PaperNoiseSet() {
				if c := scen.Node.Container(n.Name); c != nil {
					c.Cgroup().SetWriteBpsLimit(throttleBps)
				}
			}
		}
		sc := core.Config{Policy: policy, ErrorControl: true, Bound: 0.01, Priority: 10}
		sess := runOnScenario(scen, app.Name, h, cfg, sc)
		var noiseBytes float64
		for _, n := range workload.PaperNoiseSet() {
			if c := scen.Node.Container(n.Name); c != nil {
				noiseBytes += c.Cgroup().BytesWritten()
			}
		}
		elapsed := scen.Node.Engine().Now()
		return sess.Summary(cfg.SkipWarmup).MeanIO, noiseBytes / elapsed / device.MB
	}

	type res struct{ io, noise float64 }
	submit := func(label string, throttleBps float64, policy core.Policy) *runpool.Task[res] {
		return runpool.Submit("throttle/"+label, func() res {
			io, n := run(throttleBps, policy)
			return res{io, n}
		})
	}
	t0 := submit("baseline", 0, core.NoAdapt)
	t1 := submit("throttled", 10*device.MB, core.NoAdapt)
	t2 := submit("tango", 0, core.CrossLayer)
	v0 := t0.Wait()
	r.Add("none (baseline)", fmtS(v0.io), fmt.Sprintf("%.1f", v0.noise))
	v1 := t1.Wait()
	r.Add("admin throttles noise to 10 MB/s each", fmtS(v1.io), fmt.Sprintf("%.1f", v1.noise))
	v2 := t2.Wait()
	r.Add("tango cross-layer (no admin action)", fmtS(v2.io), fmt.Sprintf("%.1f", v2.noise))
	r.Notef("Static throttling stretches each checkpoint's write window (1 GB at 10 MB/s holds the disk ~100 s), so interference becomes near-continuous and seek thrash collapses aggregate throughput — the analytics gets SLOWER. Tango improves the analytics without admin action and without taxing the checkpoints.")
	return r
}

// RandomNoiseRobustness tests the §II claim that non-recurrent random
// activity (compilation, shell commands) is low-impact and is filtered
// out by DFT thresholding: adding an aperiodic writer barely moves the
// thresholded estimator's accuracy, while an unthresholded fit chases the
// noise.
func RandomNoiseRobustness(cfg Config) *Result {
	cfg = cfg.withDefaults()
	r := &Result{
		ID:     "random-noise",
		Title:  "DFT thresholding filters aperiodic noise (XGC probe run)",
		Header: []string{"thresh", "MAE periodic-only (MB/s)", "MAE +aperiodic (MB/s)", "perturbation"},
	}
	app := analytics.XGCApp()
	h := appHierarchy(app, cfg, defaultOpts())

	collect := func(withRandom bool) []float64 {
		scen := NewScenario("rnd", 4)
		if withRandom {
			workload.RandomNoise(scen.Node, scen.HDD, "adhoc", 25, 8*device.MB, 64*device.MB, 77)
		}
		sess := runOnScenario(scen, app.Name, h, cfg, core.Config{Policy: core.NoAdapt, Steps: 60})
		out := make([]float64, 0, 60)
		for _, st := range sess.Stats() {
			out = append(out, st.SlowBW)
		}
		return out
	}

	cleanT := runpool.Submit("random-noise/periodic-only", func() []float64 { return collect(false) })
	noisyT := runpool.Submit("random-noise/with-aperiodic", func() []float64 { return collect(true) })
	clean := cleanT.Wait()
	noisy := noisyT.Wait()
	mae := func(samples []float64, frac float64) float64 {
		est := dftestim.NewEstimator()
		est.ThreshFrac = frac
		est.Window = 30
		for _, bw := range samples[:30] {
			est.Observe(bw)
		}
		if err := est.Fit(); err != nil {
			panic(err)
		}
		return est.MeanAbsError(30, samples[30:])
	}
	for _, frac := range []float64{0, 0.5} {
		mc := mae(clean, frac)
		mn := mae(noisy, frac)
		r.Add(fmt.Sprintf("%.0f%%", frac*100), fmtMB(mc), fmtMB(mn),
			fmt.Sprintf("+%.1f MB/s", (mn-mc)/device.MB))
	}
	r.Notef("The claim under test (§II): aperiodic activity is filtered by thresholding. The perturbation column — how much the aperiodic writer degrades prediction — is smaller with the 50%% threshold than without it.")
	return r
}

// AblationFIFO replaces the HDD's proportional-share scheduler with FIFO
// head-of-line service. FIFO ignores cgroup weights entirely, so the
// storage layer loses its control knob and cross-layer degenerates to
// application-only adaptivity — why Tango presumes the "Ext4 with
// cgroups" row of Table I (proportional-share semantics) as its
// substrate.
func AblationFIFO(cfg Config) *Result {
	cfg = cfg.withDefaults()
	r := &Result{
		ID:     "ablation-fifo",
		Title:  "Ablation: FIFO removes the storage-layer knob (XGC, NRMSE 0.01, p=10)",
		Header: []string{"scheduler", "app-only mean I/O (s)", "cross-layer mean I/O (s)", "cross-layer gain"},
	}
	app := analytics.XGCApp()
	h := appHierarchy(app, cfg, defaultOpts())
	type pair struct {
		sched          device.Scheduler
		appOnly, cross *runpool.Task[float64]
	}
	var pairs []pair
	for _, sched := range []device.Scheduler{device.ProportionalShare, device.FIFO} {
		run := func(policy core.Policy) *runpool.Task[float64] {
			return runpool.Submit("ablation-fifo/"+sched.String()+"/"+policy.String(), func() float64 {
				hdd := device.HDD("hdd")
				hdd.Scheduler = sched
				scen := newScenarioWithHDD("fifo", 6, hdd)
				sc := core.Config{Policy: policy, ErrorControl: true, Bound: 0.01, Priority: 10}
				return runOnScenario(scen, app.Name, h, cfg, sc).Summary(cfg.SkipWarmup).MeanIO
			})
		}
		pairs = append(pairs, pair{sched, run(core.AppOnly), run(core.CrossLayer)})
	}
	for _, p := range pairs {
		appOnly, cross := p.appOnly.Wait(), p.cross.Wait()
		r.Add(p.sched.String(), fmtS(appOnly), fmtS(cross),
			fmt.Sprintf("%.0f%%", 100*(1-cross/appOnly)))
	}
	r.Notef("Under FIFO the weight function has nothing to act on, so the cross-layer gain over application-only adaptivity collapses; proportional share is the substrate assumption.")
	return r
}

// Tracking extends Fig 2's static accuracy story to blob DYNAMICS, the
// physics the XGC analysis actually chases: blobs are tracked across a
// short sequence of frames, on full data versus bound-controlled
// reconstructions. The temporal statistics (track count, persistence,
// convective speed) survive moderate bounds.
func Tracking(cfg Config) *Result {
	cfg = cfg.withDefaults()
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

	bounds := []float64{0.05, 0.1}
	rows := make([]*runpool.Task[[]string], len(bounds))
	for i, bound := range bounds {
		rows[i] = runpool.Submit(fmt.Sprintf("tracking/nrmse%g", bound), func() []string {
			var reduced []*tensor.Tensor
			for _, f := range frames {
				h, err := refactor.Decompose(f, refactor.Options{Levels: 3, Bounds: []float64{bound}})
				if err != nil {
					panic(err)
				}
				cur, err := h.CursorForBound(bound)
				if err != nil {
					panic(err)
				}
				reduced = append(reduced, h.Recompose(cur))
			}
			st := analytics.SummarizeTracks(analytics.TrackBlobs(reduced, o, 8), 2)
			return []string{fmt.Sprintf("NRMSE %g", bound), fmt.Sprintf("%d", st.Tracks),
				fmt.Sprintf("%.1f", st.MeanLength), fmt.Sprintf("%.2f", st.MeanSpeed),
				fmt.Sprintf("%.4f", st.RelErrVs(ref))}
		})
	}
	for _, t := range rows {
		r.Add(t.Wait()...)
	}
	r.Notef("Greedy nearest-centroid tracking, gate 8 cells/frame; blobs drift 1.5 cells/frame.")
	return r
}
