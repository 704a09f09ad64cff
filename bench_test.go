package tango_test

// One benchmark per table/figure of the paper's evaluation: each
// iteration regenerates the corresponding experiment through the harness
// (at reduced scale so `go test -bench=.` completes in minutes; use
// cmd/tangobench for full-scale tables). Micro-benchmarks for the core
// algorithms follow.

import (
	"fmt"
	"math"
	"testing"

	"tango"
	"tango/internal/blkio"
	"tango/internal/coordinator"
	"tango/internal/device"
	"tango/internal/dftestim"
	"tango/internal/harness"
	"tango/internal/sim"
	"tango/internal/tokenctl"
)

// benchCfg is the reduced-scale configuration for figure benchmarks.
func benchCfg() harness.Config {
	return harness.Config{GridN: 257, Seed: 42, Steps: 45, SkipWarmup: 30, DatasetMB: 2048}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := harness.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchCfg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := e.Run(cfg)
		if len(res.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkTable1QoSSurvey(b *testing.B)         { runExperiment(b, "table1") }
func BenchmarkFig01EqualWeights(b *testing.B)       { runExperiment(b, "fig1") }
func BenchmarkFig02DecimationAccuracy(b *testing.B) { runExperiment(b, "fig2") }
func BenchmarkFig07DFTEstimation(b *testing.B)      { runExperiment(b, "fig7") }
func BenchmarkFig08CrossVsSingle(b *testing.B)      { runExperiment(b, "fig8") }
func BenchmarkFig09ErrorControl(b *testing.B)       { runExperiment(b, "fig9") }
func BenchmarkFig10DataQuality(b *testing.B)        { runExperiment(b, "fig10") }
func BenchmarkFig11DoFVsBound(b *testing.B)         { runExperiment(b, "fig11") }
func BenchmarkFig12NoiseScaling(b *testing.B)       { runExperiment(b, "fig12") }
func BenchmarkFig13WeightAblation(b *testing.B)     { runExperiment(b, "fig13") }
func BenchmarkFig14aPriority(b *testing.B)          { runExperiment(b, "fig14a") }
func BenchmarkFig14bErrorBound(b *testing.B)        { runExperiment(b, "fig14b") }
func BenchmarkFig15WeightTimeline(b *testing.B)     { runExperiment(b, "fig15") }
func BenchmarkFig16WeakScaling(b *testing.B)        { runExperiment(b, "fig16") }
func BenchmarkHeadlineImprovement(b *testing.B)     { runExperiment(b, "headline") }
func BenchmarkAblationNoSeekThrash(b *testing.B)    { runExperiment(b, "ablation-seek") }
func BenchmarkAblationUnsortedBuckets(b *testing.B) { runExperiment(b, "ablation-sort") }
func BenchmarkAblationParallelReads(b *testing.B)   { runExperiment(b, "ablation-parallel") }
func BenchmarkExtCoexist(b *testing.B)              { runExperiment(b, "coexist") }
func BenchmarkExtRegimeChange(b *testing.B)         { runExperiment(b, "regime") }
func BenchmarkExtThrottleVsTango(b *testing.B)      { runExperiment(b, "throttle") }
func BenchmarkExtRandomNoise(b *testing.B)          { runExperiment(b, "random-noise") }

// BenchmarkExtFleet runs the fleet experiment at a reduced sweep scale
// (2% of the canonical 10→1000-node ladder) so `go test -bench=.` stays
// fast; cmd/tangobench runs it full-scale.
func BenchmarkExtFleet(b *testing.B) {
	e, err := harness.Lookup("fleet")
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchCfg()
	cfg.FleetScale = 0.02
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := e.Run(cfg)
		if len(res.Rows) == 0 {
			b.Fatal("fleet produced no rows")
		}
	}
}

// ---- Core algorithm micro-benchmarks --------------------------------------

func benchField(n int) *tango.Tensor {
	t := tango.NewTensor(n, n)
	d := t.Data()
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			d[r*n+c] = math.Sin(8*math.Pi*float64(r)/float64(n)) *
				math.Cos(6*math.Pi*float64(c)/float64(n))
		}
	}
	return t
}

func BenchmarkDecompose257(b *testing.B) {
	f := benchField(257)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tango.DecomposeTensor(f, tango.RefactorOptions{Levels: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecomposeWithLadder257(b *testing.B) {
	f := benchField(257)
	opts := tango.RefactorOptions{Levels: 3, Bounds: []float64{1e-1, 1e-2, 1e-3}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tango.DecomposeTensor(f, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecomposeFull257(b *testing.B) {
	f := benchField(257)
	h, err := tango.DecomposeTensor(f, tango.RefactorOptions{Levels: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Recompose(h.TotalEntries())
	}
}

func BenchmarkFFT1024(b *testing.B) {
	x := make([]float64, 1024)
	for i := range x {
		x[i] = math.Sin(float64(i) / 7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dftestim.FFTReal(x)
	}
}

func BenchmarkEstimatorFitPredict(b *testing.B) {
	est := dftestim.NewEstimator()
	for i := 0; i < 30; i++ {
		est.Observe(100 + 40*math.Sin(2*math.Pi*float64(i)/10))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := est.Fit(); err != nil {
			b.Fatal(err)
		}
		est.Predict(31)
	}
}

func BenchmarkDeviceContention(b *testing.B) {
	// 8 concurrent weighted flows draining on one HDD: measures the
	// fluid-sharing scheduler's event processing.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		d := device.New(eng, device.HDD("hdd"))
		for j := 0; j < 8; j++ {
			cg := blkio.NewCgroup("cg")
			cg.SetWeight(100 + 100*j)
			eng.Spawn("f", func(p *sim.Proc) {
				d.Read(p, cg, 512*device.MB)
			})
		}
		if err := eng.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlobDetection(b *testing.B) {
	app := tango.XGCApp()
	f := app.Generate(257, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e := app.OutcomeErr(f, f); e != 0 {
			b.Fatal("self outcome error")
		}
	}
}

func BenchmarkSessionStepCrossLayer(b *testing.B) {
	// Full controller step cost (sim time excluded — this measures the
	// wall-clock of simulating one 45-step session).
	app := tango.XGCApp()
	f := app.Generate(257, 1)
	h, err := tango.DecomposeTensor(f, tango.RefactorOptions{
		Levels: 3, Bounds: []float64{1e-1, 1e-2},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node := tango.NewNode("n")
		node.MustAddDevice(tango.SSD("ssd"))
		hdd := node.MustAddDevice(tango.HDD("hdd"))
		tango.LaunchTableIVNoise(node, hdd, 6)
		store, err := tango.StageScaled(h, node.Tiers(), 2048)
		if err != nil {
			b.Fatal(err)
		}
		sess, err := tango.NewSession("a", store, tango.SessionConfig{
			Policy: tango.CrossLayer, Steps: 45,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.Launch(node); err != nil {
			b.Fatal(err)
		}
		if err := node.Engine().Run(45*60 + 3600); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtBlobTracking(b *testing.B) { runExperiment(b, "tracking") }

// benchCoordinatorRequest measures one Request/grant cycle on a hot
// session while n other sessions stay attached and active: the
// incremental max-desired tracking must keep the per-op cost flat in n
// (the seed allocator re-scanned and re-granted every session per call).
func benchCoordinatorRequest(b *testing.B, n int) {
	a := coordinator.New()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d", i)
		if err := a.Attach(name, blkio.NewCgroup(name)); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Request(name, 200+(i%5)*100); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Request("s0", 150+(i%4)*50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoordinatorRequest1k(b *testing.B)   { benchCoordinatorRequest(b, 1_000) }
func BenchmarkCoordinatorRequest10k(b *testing.B)  { benchCoordinatorRequest(b, 10_000) }
func BenchmarkCoordinatorRequest100k(b *testing.B) { benchCoordinatorRequest(b, 100_000) }

// BenchmarkTokenTakeBorrow measures the decentralized arm's steady-state
// Request cycle: a mid-window desire escalation that drains the
// session's own bucket and borrows the shortfall from idle peers. The
// whole cycle must stay allocation-free — it runs inside every
// session's control step.
func BenchmarkTokenTakeBorrow(b *testing.B) {
	now := 0.0
	c := tokenctl.New(func() float64 { return now }, tokenctl.Options{})
	var bk *tokenctl.Bucket
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("t%d", i)
		tb, err := c.Attach(name, blkio.NewCgroup(name))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			bk = tb // the borrower; the rest stay idle and lendable
		}
	}
	for i := 0; i < 64; i++ { // reach ledger steady state before timing
		now += 7
		c.Request(bk, 300+(i%7)*100)
		c.Request(bk, 1000)
		c.Release(bk)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 7
		c.Request(bk, 300+(i%7)*100)
		c.Request(bk, 1000)
		c.Release(bk)
	}
	b.StopTimer()
	if c.Stats().Borrows == 0 {
		b.Fatal("benchmark never exercised the borrow path")
	}
}
