package core

import (
	"math"
	"testing"

	"tango/internal/container"
	"tango/internal/device"
	"tango/internal/fault"
	"tango/internal/refactor"
	"tango/internal/resil"
	"tango/internal/staging"
	"tango/internal/trace"
)

func TestParallelTierReadsFasterSteps(t *testing.T) {
	steps := 10
	mut := func(parallel bool) func(*Config) {
		return func(c *Config) {
			c.ErrorControl = true
			c.Bound = 0.001
			c.ParallelTierReads = parallel
		}
	}
	seq := runSession(t, CrossLayer, 0, steps, mut(false)) // no noise: pure overlap effect
	par := runSession(t, CrossLayer, 0, steps, mut(true))
	sseq := seq.Summary(0)
	spar := par.Summary(0)
	if !(spar.MeanIO < sseq.MeanIO) {
		t.Fatalf("parallel %v should beat sequential %v without contention", spar.MeanIO, sseq.MeanIO)
	}
	// The same data must have been retrieved.
	if sseq.MeanBytes != spar.MeanBytes {
		t.Fatalf("bytes differ: %v vs %v", sseq.MeanBytes, spar.MeanBytes)
	}
}

func TestTraceRecordsControllerEvents(t *testing.T) {
	rec := trace.New(1 << 14)
	s := runSession(t, CrossLayer, 2, 8, func(c *Config) {
		c.ErrorControl = true
		c.Bound = 0.01
		c.RefitEvery = 4
		c.Window = 4
		c.Trace = rec
	})
	if got := len(rec.Filter(trace.KindStep)); got != 8 {
		t.Fatalf("step events = %d, want 8", got)
	}
	if len(rec.Filter(trace.KindWeight)) == 0 {
		t.Fatal("no weight events")
	}
	if len(rec.Filter(trace.KindBucket)) == 0 {
		t.Fatal("no bucket events")
	}
	if got := len(rec.Filter(trace.KindRefit)); got != 2 {
		t.Fatalf("refit events = %d, want 2", got)
	}
	_ = s
}

func TestNilTraceIsSafe(t *testing.T) {
	// Default config has no recorder; the emission call sites must not
	// panic (covered implicitly by every other test, asserted here
	// explicitly for the cross-layer path that emits the most).
	s := runSession(t, CrossLayer, 1, 3, func(c *Config) {
		c.ErrorControl = true
		c.Bound = 0.01
	})
	if len(s.Stats()) != 3 {
		t.Fatal("session did not complete")
	}
}

// plantStep appends a finished step record whose buckets are bks,
// planned into the bucket log and entered in the record as a step does.
func plantStep(s *Session, st StepStats, bks ...BucketStat) {
	b0, plan := s.buckets(0, true)
	copy(plan[:len(bks)], bks)
	st.b0, st.nb = b0, uint16(len(bks))
	s.stats = append(s.stats, st)
}

func TestWeightBoostBounds(t *testing.T) {
	_, st := scenario(t, 0)
	s, err := NewSession("a", st, Config{Policy: CrossLayer, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Before any stats: neutral boost.
	if got := s.weightBoost(); got != 1 {
		t.Fatalf("initial boost = %v", got)
	}
	// Synthetic last step with known weights.
	plantStep(s, StepStats{}, BucketStat{Weight: 300}, BucketStat{Weight: 500})
	boost := s.weightBoost()
	want := 2.0 * 400 / (400 + 100)
	if math.Abs(boost-want) > 1e-12 {
		t.Fatalf("boost = %v, want %v", boost, want)
	}
	if boost < 1 || boost >= 2 {
		t.Fatalf("boost %v outside [1,2)", boost)
	}
	// Steps without weight adjustments: neutral.
	plantStep(s, StepStats{}, BucketStat{Weight: 0})
	if got := s.weightBoost(); got != 1 {
		t.Fatalf("unweighted boost = %v", got)
	}
}

func TestTimeToBoundNaNForMissingBound(t *testing.T) {
	_, st := scenario(t, 0)
	s, err := NewSession("a", st, Config{Policy: CrossLayer, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	plantStep(s, StepStats{BaseTime: 0.25}, BucketStat{Bound: 0.01, To: 10, Start: 1, Elapsed: 2})
	if got := s.TimeToBound(0, 11); !math.IsNaN(got) {
		t.Fatalf("unreached rung = %v, want NaN", got)
	}
	s.stats[0].Start = 0.5
	if got := s.TimeToBound(0, 10); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("TimeToBound = %v", got)
	}
	if got := s.TimeToBound(0, 0); got != 0.25 {
		t.Fatalf("base-only rung = %v, want the base read time", got)
	}
}

func TestSetBoundAtRuntime(t *testing.T) {
	node, st := scenario(t, 0)
	h := st.Hierarchy()
	s, err := NewSession("a", st, Config{
		Policy: CrossLayer, ErrorControl: true, Bound: 0.05, Steps: 8,
		Window: 3, RefitEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Launch(node); err != nil {
		t.Fatal(err)
	}
	node.Engine().At(node.Engine().Now()+(4*60+1), func() {
		if err := s.SetBound(0.001); err != nil {
			t.Errorf("SetBound: %v", err)
		}
		if err := s.SetBound(0.42); err == nil {
			t.Error("bogus bound accepted")
		}
	})
	if err := node.Engine().Run(8*60 + 600); err != nil {
		t.Fatal(err)
	}
	loose, err := h.CursorForBound(0.05)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := h.CursorForBound(0.001)
	if err != nil {
		t.Fatal(err)
	}
	if loose >= tight {
		t.Skip("ladder degenerate at this scale")
	}
	// After the bound tightened, every step must honor the new floor.
	for i, stp := range s.Stats()[5:] {
		if stp.Cursor < tight {
			t.Fatalf("step %d cursor %d below tightened floor %d", 5+i, stp.Cursor, tight)
		}
	}
}

// TestStuckProbeCarriesForwardSamples: under the resilience control plane
// the probe is deadlined, so on a stuck capacity tier it moves nothing.
// Such a step measures no bandwidth and repeats the last sample, keeping
// one estimator sample per step.
func TestStuckProbeCarriesForwardSamples(t *testing.T) {
	const steps, stuckFrom, stuckSteps = 8, 3, 2
	node, st := scenario(t, 2)
	plan := &fault.Plan{Events: []fault.Event{{At: stuckFrom*period - 1, Kind: fault.Stuck,
		Target: "hdd", Duration: stuckSteps * period}}}
	if err := fault.NewInjector(node, nil, plan).Arm(); err != nil {
		t.Fatal(err)
	}
	s, err := NewSession("analytics", st, Config{Policy: CrossLayer, Steps: steps, Window: 3, RefitEvery: 3,
		Resil: resil.New(node.Engine(), resil.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Launch(node); err != nil {
		t.Fatal(err)
	}
	if err := node.Engine().Run(steps*period + 1000); err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	if len(stats) != steps {
		t.Fatalf("completed %d of %d steps", len(stats), steps)
	}
	for i, st := range stats {
		if st.SlowBW <= 0 {
			t.Fatalf("step %d sample = %v", i, st.SlowBW)
		}
		if i >= stuckFrom && i < stuckFrom+stuckSteps && st.SlowBW != stats[i-1].SlowBW {
			t.Errorf("stuck step %d: sample %v, want the previous %v carried forward", i, st.SlowBW, stats[i-1].SlowBW)
		}
	}
	if s.Estimator().Samples() != steps {
		t.Fatalf("samples = %d", s.Estimator().Samples())
	}
}

func TestSessionOnBoundlessHierarchy(t *testing.T) {
	// A hierarchy without a bound ladder: only fraction-driven
	// augmentation is available; error control must be rejected.
	field := testField(2)
	h, err := refactor.Decompose(field, refactor.Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	node := container.NewNode("nb")
	node.MustAddDevice(device.SSD("ssd"))
	node.MustAddDevice(device.HDD("hdd"))
	st, err := staging.Stage(h, node.Tiers())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession("a", st, Config{Steps: 1, ErrorControl: true, Bound: 0.01}); err == nil {
		t.Fatal("error control without a ladder accepted")
	}
	s, err := NewSession("a", st, Config{Policy: CrossLayer, Steps: 4, Window: 2, RefitEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Launch(node); err != nil {
		t.Fatal(err)
	}
	if err := node.Engine().Run(4*60 + 600); err != nil {
		t.Fatal(err)
	}
	if len(s.Stats()) != 4 {
		t.Fatalf("steps = %d", len(s.Stats()))
	}
}

func TestSessionOnSingleLevelHierarchy(t *testing.T) {
	// L=1: no augmentations; the base IS the dataset and lives on the
	// fast tier. The whole pipeline must still run.
	field := testField(3)
	h, err := refactor.Decompose(field, refactor.Options{Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	node := container.NewNode("n1")
	node.MustAddDevice(device.SSD("ssd"))
	node.MustAddDevice(device.HDD("hdd"))
	st, err := staging.Stage(h, node.Tiers())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession("a", st, Config{Policy: CrossLayer, Steps: 3, Window: 2, RefitEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Launch(node); err != nil {
		t.Fatal(err)
	}
	if err := node.Engine().Run(3*60 + 600); err != nil {
		t.Fatal(err)
	}
	for _, stp := range s.Stats() {
		if stp.Cursor != 0 || stp.Bytes <= 0 {
			t.Fatalf("step stats = %+v", stp)
		}
	}
}

func TestSummaryPercentiles(t *testing.T) {
	var stats []StepStats
	for i := 1; i <= 100; i++ {
		stats = append(stats, StepStats{IOTime: float64(i)})
	}
	s := Summarize(stats, 0)
	if s.P50IO != 50 {
		t.Fatalf("p50 = %v", s.P50IO)
	}
	if s.P95IO != 95 {
		t.Fatalf("p95 = %v", s.P95IO)
	}
	one := Summarize(stats[:1], 0)
	if one.P50IO != 1 || one.P95IO != 1 {
		t.Fatalf("single-sample percentiles: %+v", one)
	}
	empty := Summarize(nil, 0)
	if empty.P50IO != 0 || empty.P95IO != 0 {
		t.Fatalf("empty percentiles: %+v", empty)
	}
	// Percentiles bracket the extremes.
	if s.P50IO < s.MinIO || s.P95IO > s.MaxIO {
		t.Fatal("percentiles outside [min,max]")
	}
}
