package harness

import (
	"fmt"

	"tango/internal/device"
	"tango/internal/refactor"
	"tango/internal/workload"
)

// table1 reproduces the paper's Table I: the QoS capabilities of major
// HPC file systems (a static survey motivating node-local cgroup-based
// control, which Ext4-with-cgroups uniquely provides per-application and
// at runtime).
func table1(cfg Config) *Result {
	r := &Result{
		ID:     "table1",
		Title:  "QoS in HPC file systems",
		Header: []string{"File system", "Per-app control", "Runtime adjust", "QoS mechanism", "Scheduling"},
	}
	r.Add("Lustre (>2.6)", "no", "no", "throttling", "token bucket filter")
	r.Add("Spectrum Scale (5.0.4)", "no", "no", "throttling per pool (2 classes)", "unknown")
	r.Add("Ceph (13.2.6)", "no", "no", "throttling", "dmclock")
	r.Add("OrangeFS (2.9.7)", "no", "no", "none", "none")
	r.Add("Ext4 with cgroups", "yes", "yes", "proportional weight, throttling", "completely fair scheduling")
	r.Notef("Motivation 1: only node-local cgroups offer per-application, runtime-adjustable QoS.")
	return r
}

// fig01 reproduces Fig 1: three data analytics containers with equal
// blkio weights reading periodically from the shared HDD. The perceived
// bandwidth of each collapses while the others' reads and the checkpoint
// noise overlap, and recovers when a container runs alone — static
// proportional weights do not isolate.
func fig01(cfg Config) *Result {
	r := &Result{
		ID:     "fig1",
		Title:  "I/O performance of data analytics with equal weights (shared HDD)",
		Header: []string{"t(s)", "XGC MB/s", "GenASiS MB/s", "CFD MB/s"},
	}
	scen := NewScenario("fig1", 3) // moderate background noise

	type series struct {
		name  string
		steps int
		bw    map[int]float64
	}
	// Different lifetimes: CFD exits first, then GenASiS; XGC runs on and
	// should see its bandwidth recover.
	apps := []*series{
		{name: "XGC", steps: 30, bw: map[int]float64{}},
		{name: "GenASiS", steps: 18, bw: map[int]float64{}},
		{name: "CFD", steps: 10, bw: map[int]float64{}},
	}
	readBytes := 256 * float64(device.MB)
	for _, a := range apps {
		a := a
		workload.PeriodicReader(scen.Node, scen.HDD, a.name, 60, a.steps,
			func(step int) float64 { return readBytes },
			func(step int, start, ioTime, bytes float64) {
				a.bw[step] = bytes / ioTime
			})
	}
	scen.run(30, 600)
	for step := 0; step < 30; step++ {
		row := []string{fmt.Sprintf("%d", step*60)}
		for _, a := range apps {
			if bw, ok := a.bw[step]; ok {
				row = append(row, fmtMB(bw))
			} else {
				row = append(row, "-")
			}
		}
		r.Add(row...)
	}
	// Quantify the recovery: XGC's mean bandwidth alone vs while all
	// three analytics run. Iterate step indices in order (not map order)
	// so the float sums are deterministic.
	var contended, alone float64
	var nc, na int
	for step := 0; step < apps[0].steps; step++ {
		bw, ok := apps[0].bw[step]
		if !ok {
			continue
		}
		if step < 10 {
			contended += bw
			nc++
		} else if step >= 18 {
			alone += bw
			na++
		}
	}
	if nc > 0 && na > 0 {
		r.Notef("XGC perceived bandwidth: %.1f MB/s with 3 analytics running vs %.1f MB/s after the others exit (%.0f%% drop under equal weights).",
			contended/float64(nc)/(1024*1024), alone/float64(na)/(1024*1024),
			100*(1-(contended/float64(nc))/(alone/float64(na))))
	}
	return r
}

// fig02 reproduces Fig 2: PSNR of the reduced representation and the
// relative error of each analysis outcome as the decimation ratio grows.
// Even at extreme ratios the outcome error stays bounded (Motivation 3).
func fig02(cfg Config) *Result {
	r := &Result{
		ID:    "fig2",
		Title: "Accuracy of using a reduced representation",
		Header: []string{"decimation", "XGC PSNR", "XGC relerr", "GenASiS PSNR", "GenASiS relerr",
			"CFD PSNR", "CFD relerr"},
	}
	addRows(r, []float64{4, 16, 64, 256, 512, 8192}, func(ratio float64) []string {
		row := []string{fmt.Sprintf("%.0f", ratio)}
		for _, app := range appsUnderTest() {
			orig := appField(app, cfg)
			levels := refactor.LevelsForRatio(ratio, 2, 2)
			h := appHierarchy(app, cfg, refactor.Options{Levels: levels})
			rec := h.Recompose(0) // reduced representation only
			psnr := appStats(app, cfg).PSNR(orig.Data(), rec.Data())
			relerr := app.OutcomeErr(orig, rec)
			row = append(row, fmt.Sprintf("%.1f", psnr), fmt.Sprintf("%.3f", relerr))
		}
		return row
	})
	r.Notef("Reduced representation = base level only (no augmentation); ratio maps to levels via LevelsForRatio (achieved point-count ratio is the nearest power of 4).")
	return r
}
