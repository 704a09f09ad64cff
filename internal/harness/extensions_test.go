package harness

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"tango/internal/runpool"
)

func cell(t *testing.T, r *Result, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(r.Rows[row][col], "%")
	s = strings.TrimSuffix(s, "x")
	s = strings.TrimSuffix(s, " MB/s")
	s = strings.TrimPrefix(s, "+")
	// Keep only the value before a ± if present.
	if i := strings.IndexRune(s, '±'); i >= 0 {
		s = s[:i]
	}
	var v float64
	if _, err := fmtSscan(s, &v); err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, r.Rows[row][col], err)
	}
	return v
}

func TestCoexistEqualPriorityIsSymmetric(t *testing.T) {
	r := run("coexist", smallCfg())
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Control row: equal priority -> identical performance.
	if ci, cb := cell(t, r, 1, 1), cell(t, r, 1, 2); ci != cb {
		t.Fatalf("equal-priority sessions differ: %v vs %v", ci, cb)
	}
	// Differentiated row: interactive no slower than batch.
	if ii, ib := cell(t, r, 0, 1), cell(t, r, 0, 2); ii > ib {
		t.Fatalf("high-priority session slower: %v vs %v", ii, ib)
	}
}

func TestRegimeStaleModelWindowWorst(t *testing.T) {
	r := run("regime", smallCfg())
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	before := cell(t, r, 0, 2)
	stale := cell(t, r, 1, 2)
	if !(stale > before) {
		t.Fatalf("stale-model MAE %v should exceed settled MAE %v", stale, before)
	}
}

func TestThrottleExperimentShape(t *testing.T) {
	r := run("throttle", smallCfg())
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	baseline := cell(t, r, 0, 1)
	tango := cell(t, r, 2, 1)
	if !(tango < baseline) {
		t.Fatalf("tango %v should beat baseline %v", tango, baseline)
	}
}

func TestRandomNoisePerturbationSmallerWithThreshold(t *testing.T) {
	r := run("random-noise", smallCfg())
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	p0 := cell(t, r, 0, 3)
	p50 := cell(t, r, 1, 3)
	if !(p50 <= p0+0.5) { // allow 0.5 MB/s tolerance at test scale
		t.Fatalf("thresholded perturbation %v should not exceed unthresholded %v", p50, p0)
	}
}

func TestParallelAblationNotSlower(t *testing.T) {
	r := run("ablation-parallel", smallCfg())
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	seq := cell(t, r, 0, 1)
	par := cell(t, r, 1, 1)
	if !(par <= seq+1e-9) {
		t.Fatalf("parallel %v slower than sequential %v", par, seq)
	}
}

func TestAblationSeekNarrowsGap(t *testing.T) {
	r := run("ablation-seek", smallCfg())
	withRatio := cell(t, r, 0, 3)
	withoutRatio := cell(t, r, 1, 3)
	if !(withoutRatio >= withRatio) {
		t.Fatalf("gap should narrow without thrash: %v vs %v", withoutRatio, withRatio)
	}
}

func TestFig12StorageDegradesWithNoise(t *testing.T) {
	r := run("fig12", smallCfg())
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	s3 := cell(t, r, 0, 2)
	s6 := cell(t, r, 3, 2)
	if !(s6 >= s3) {
		t.Fatalf("storage-only should degrade 3->6 noises: %v -> %v", s3, s6)
	}
}

func TestFig16FlatScaling(t *testing.T) {
	r := run("fig16", smallCfg())
	one := cell(t, r, 0, 1)
	four := cell(t, r, 3, 1)
	if one != four {
		t.Fatalf("weak scaling not flat: %v vs %v", one, four)
	}
}

func TestCSVAndJSONFormats(t *testing.T) {
	r := run("table1", smallCfg())
	var csvB, jsonB strings.Builder
	if err := r.Format(&csvB, "csv"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvB.String(), "Lustre") {
		t.Fatal("csv missing data")
	}
	if err := r.Format(&jsonB, "json"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonB.String(), "\"id\": \"table1\"") {
		t.Fatal("json missing id")
	}
	if err := r.Format(&csvB, "bogus"); err == nil {
		t.Fatal("bogus format accepted")
	}
}

// TestChaosCrossLayerRecovers pins the acceptance bar for the fault
// extension: under an identical generated fault plan, the cross-layer
// policy recovers at least the throughput of no-adapt and storage-only,
// never violates the prescribed bound, exercises the retry path, and
// leaves no injected fault without a later recovery/refit event.
func TestChaosCrossLayerRecovers(t *testing.T) {
	r := run("chaos", smallCfg())
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d, want one per extended policy", len(r.Rows))
	}
	const (
		colBW       = 2
		colRetries  = 3
		colViol     = 5
		colFaults   = 6
		colUnpaired = 7
	)
	noAdaptBW := cell(t, r, 0, colBW)
	storageBW := cell(t, r, 1, colBW)
	crossBW := cell(t, r, 3, colBW)
	if crossBW < noAdaptBW || crossBW < storageBW {
		t.Fatalf("cross-layer BW %v below no-adapt %v or storage-only %v",
			crossBW, noAdaptBW, storageBW)
	}
	if viol := cell(t, r, 3, colViol); viol != 0 {
		t.Fatalf("cross-layer violated the prescribed bound in %v steps", viol)
	}
	if retries := cell(t, r, 3, colRetries); retries == 0 {
		t.Fatal("fault plan exercised no read retries")
	}
	// Prefetched data survives HDD faults at SSD speed: the cache variant
	// must recover at least cross-layer's throughput.
	if pfBW := cell(t, r, 4, colBW); pfBW < crossBW {
		t.Fatalf("cross-layer+prefetch BW %v below cross-layer %v under faults", pfBW, crossBW)
	}
	for i := range r.Rows {
		if f := cell(t, r, i, colFaults); f == 0 {
			t.Fatalf("row %d: no faults injected", i)
		}
		if up := cell(t, r, i, colUnpaired); up != 0 {
			t.Fatalf("row %d: %v injected faults without a recovery event", i, up)
		}
	}
}

// TestChaosLeavesNoGoroutines: a scenario's interferers, prefetcher,
// injector and session are engine callbacks, none a process, so a chaos
// experiment leaves no goroutine behind once the pool's workers have
// drained: a second, identical run adds none.
func TestChaosLeavesNoGoroutines(t *testing.T) {
	prev := runpool.Workers()
	runpool.SetWorkers(1)
	defer runpool.SetWorkers(prev)
	cfg := Config{GridN: 65, Seed: 7, Steps: 20, SkipWarmup: 10}
	run("chaos", cfg)
	before := runtime.NumGoroutine()
	run("chaos", cfg)
	// runpool's workers exit once their queue drains.
	for i := 0; i < 200 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before the run, %d after", before, n)
	}
}
