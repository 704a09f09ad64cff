package harness

import (
	"strings"
	"testing"
)

func TestFig08PolicyOrdering(t *testing.T) {
	r := run("fig8", smallCfg())
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		noAdapt := cell(t, r, 0, 1)
		cross := cell(t, r, 0, 4)
		if !(cross <= noAdapt) {
			t.Fatalf("cross-layer should not lose to no-adapt: %v", row)
		}
	}
}

func TestFig09ErrorControlRows(t *testing.T) {
	r := run("fig9", smallCfg())
	// 3 apps x 2 metrics.
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for i := range r.Rows {
		if r.Rows[i][1] != "NRMSE 0.01" && r.Rows[i][1] != "PSNR 30dB" {
			t.Fatalf("row %d metric = %q", i, r.Rows[i][1])
		}
	}
}

func TestFig10NoAugmentationWorst(t *testing.T) {
	r := run("fig10", smallCfg())
	for i := range r.Rows {
		cross := cell(t, r, i, 1)
		noAug := cell(t, r, i, 3)
		if !(noAug > cross) {
			t.Fatalf("row %d: no-augmentation %v should be worse than cross %v", i, noAug, cross)
		}
	}
}

func TestFig13AblationMonotone(t *testing.T) {
	r := run("fig13", smallCfg())
	// XGC row: latency must not increase as terms are added.
	card := cell(t, r, 0, 2)
	cardPrio := cell(t, r, 0, 3)
	full := cell(t, r, 0, 4)
	if !(full <= cardPrio+1e-9 && cardPrio <= card+1e-9) {
		t.Fatalf("ablation not monotone: %v %v %v", card, cardPrio, full)
	}
}

func TestFig14aPriorityMonotone(t *testing.T) {
	r := run("fig14a", smallCfg())
	for i := range r.Rows {
		p1 := cell(t, r, i, 1)
		p10 := cell(t, r, i, 3)
		if !(p10 <= p1+1e-9) {
			t.Fatalf("row %d: p=10 (%v) slower than p=1 (%v)", i, p10, p1)
		}
	}
}

func TestFig14bBoundMonotone(t *testing.T) {
	r := run("fig14b", smallCfg())
	for i := range r.Rows {
		loose := cell(t, r, i, 1)
		tight := cell(t, r, i, 4)
		if !(tight >= loose-1e-9) {
			t.Fatalf("row %d: tighter bound faster (%v vs %v)", i, tight, loose)
		}
	}
}

func TestFig15WeightDecreasesWithinStep(t *testing.T) {
	r := run("fig15", smallCfg())
	if len(r.Rows) == 0 {
		t.Fatal("no weight events in the window")
	}
	// Rows come in per-step runs; within a run the weight must not
	// increase as the accuracy tightens.
	var prevT, prevW float64 = -1, 1e9
	for i := range r.Rows {
		tm := cell(t, r, i, 0)
		w := cell(t, r, i, 2)
		if tm-prevT < 30 { // same step (bucket reads are seconds apart)
			if w > prevW {
				t.Fatalf("row %d: weight rose within a step (%v -> %v)", i, prevW, w)
			}
		}
		prevT, prevW = tm, w
	}
}

func TestFig07ThreshMonotone(t *testing.T) {
	r := run("fig7", smallCfg())
	m25 := cell(t, r, 0, 2)
	m75 := cell(t, r, 2, 2)
	if !(m75 >= m25) {
		t.Fatalf("MAE should grow with threshold: %v vs %v", m25, m75)
	}
}

func TestHeadlinePositive(t *testing.T) {
	r := run("headline", smallCfg())
	// Mean row: improvement over no-adaptivity must be positive.
	last := len(r.Rows) - 1
	if r.Rows[last][0] != "mean" {
		t.Fatalf("last row = %v", r.Rows[last])
	}
	if v := cell(t, r, last, 1); v <= 0 {
		t.Fatalf("mean improvement vs no-adapt = %v", v)
	}
}

func TestFIFOAblationCollapsesGain(t *testing.T) {
	r := run("ablation-fifo", smallCfg())
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	propGain := cell(t, r, 0, 3)
	fifoGain := cell(t, r, 1, 3)
	if !(fifoGain < propGain) {
		t.Fatalf("FIFO gain %v should be below proportional-share gain %v", fifoGain, propGain)
	}
}

func TestThrottleNoiseThroughputReported(t *testing.T) {
	r := run("throttle", smallCfg())
	for i := range r.Rows {
		if v := cell(t, r, i, 2); v <= 0 {
			t.Fatalf("row %d noise throughput = %v", i, v)
		}
	}
}

func TestExperimentIDsMatchResults(t *testing.T) {
	// Cheap experiments only; each must return a Result whose ID matches
	// the registry ID.
	for _, id := range []string{"table1", "fig11"} {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		res := e.Run(smallCfg())
		if res.ID != id {
			t.Fatalf("experiment %s returned result id %s", id, res.ID)
		}
		if !strings.Contains(res.String(), res.Title) {
			t.Fatalf("rendered result missing title")
		}
	}
}
