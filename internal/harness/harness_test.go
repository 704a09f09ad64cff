package harness

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// smallCfg keeps unit tests fast; experiments still exercise the full
// pipeline.
func smallCfg() Config {
	return Config{GridN: 129, Seed: 7, Steps: 40, SkipWarmup: 30}
}

// run enters experiment id the way tangobench does.
func run(id string, cfg Config) *Result {
	e, err := Lookup(id)
	if err != nil {
		panic(err)
	}
	return e.Run(cfg)
}

// TestConfigValidate: every value the experiments cannot run with is
// refused with an error naming the flag that set it; the defaults and the
// scale `make suite` runs at pass.
func TestConfigValidate(t *testing.T) {
	for _, ok := range []Config{
		{},
		{GridN: 129, Steps: 40, SkipWarmup: 10, DatasetMB: 512},
		{GridN: minGridN, Steps: 31, FleetScale: 0.02},
	} {
		if err := ok.WithDefaults().Validate(); err != nil {
			t.Errorf("%+v: %v", ok, err)
		}
	}
	// SkipWarmup 0 means the default 30, so "no warm-up" is not reachable
	// through WithDefaults; Validate itself takes it.
	if err := (Config{GridN: 65, Steps: 1, DatasetMB: 1, FleetScale: 1}).Validate(); err != nil {
		t.Errorf("one step, no warm-up: %v", err)
	}
	for _, tc := range []struct {
		flag string
		bad  Config
	}{
		{"-steps 20", Config{Steps: 20}},
		{"-steps 30", Config{Steps: 30}},
		{"-steps -4", Config{Steps: -4}},
		{"-skip -1", Config{SkipWarmup: -1}},
		{"-grid -5", Config{GridN: -5}},
		{"-grid 2", Config{GridN: minGridN - 1}},
		{"-dataset -1", Config{DatasetMB: -1}},
		{"-dataset +Inf", Config{DatasetMB: math.Inf(1)}},
		{"-dataset NaN", Config{DatasetMB: math.NaN()}},
		{"-dataset 1e+09", Config{DatasetMB: 1e9}}, // staging used to panic: more than the tiers hold
		{"-fleetscale -0.5", Config{FleetScale: -0.5}},
		{"-fleetscale +Inf", Config{FleetScale: math.Inf(1)}},
	} {
		err := tc.bad.WithDefaults().Validate()
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag) {
			t.Errorf("%+v: got %v, want an error starting %q", tc.bad, err, tc.flag)
		}
	}
	for _, format := range []string{"", "table", "csv", "json", "JSON"} {
		if err := CheckFormat(format); err != nil {
			t.Errorf("CheckFormat(%q): %v", format, err)
		}
	}
	if err := CheckFormat("xml"); err == nil || !strings.Contains(err.Error(), "table|csv|json") {
		t.Errorf("CheckFormat(xml) = %v, want the known formats named", err)
	}
}

func TestResultFormatting(t *testing.T) {
	r := &Result{ID: "x", Title: "demo", Header: []string{"a", "bb"}}
	r.Add("1", "2")
	r.Add("333", "4")
	r.Notef("hello %d", 5)
	s := r.String()
	for _, want := range []string{"== x: demo ==", "a", "bb", "333", "note: hello 5"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("fig8"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("bogus id found")
	}
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.run == nil || e.Title == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestTable1Static(t *testing.T) {
	r := run("table1", smallCfg())
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Only ext4+cgroups has per-app runtime control.
	if r.Rows[4][1] != "yes" || r.Rows[4][2] != "yes" {
		t.Fatalf("ext4 row wrong: %v", r.Rows[4])
	}
	for i := 0; i < 4; i++ {
		if r.Rows[i][1] != "no" {
			t.Fatalf("row %d should lack per-app control", i)
		}
	}
}

func TestFig01ShowsInterferenceDrop(t *testing.T) {
	r := run("fig1", smallCfg())
	if len(r.Rows) != 30 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if len(r.Notes) == 0 || !strings.Contains(r.Notes[0], "drop") {
		t.Fatalf("expected drop note, got %v", r.Notes)
	}
}

func TestFig02ErrorsGrowWithDecimation(t *testing.T) {
	r := run("fig2", smallCfg())
	if len(r.Rows) < 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// PSNR should decrease from the first to the last ratio for XGC.
	first, last := r.Rows[0][1], r.Rows[len(r.Rows)-1][1]
	var f, l float64
	if _, err := fmtSscan(first, &f); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(last, &l); err != nil {
		t.Fatal(err)
	}
	if !(l < f) {
		t.Fatalf("PSNR should fall with decimation: %v -> %v", f, l)
	}
}

func TestFig07EstimationAccuracy(t *testing.T) {
	r := run("fig7", smallCfg())
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
}

func TestFig11DoFMonotone(t *testing.T) {
	r := run("fig11", smallCfg())
	// Within the NRMSE block (first 5 rows), DoF% must not decrease as
	// bounds tighten.
	var prev float64 = -1
	for i := 0; i < 5; i++ {
		var v float64
		if _, err := fmtSscan(strings.TrimSuffix(r.Rows[i][2], "%"), &v); err != nil {
			t.Fatal(err)
		}
		if v < prev-1e-9 {
			t.Fatalf("DoF%% decreased at row %d: %v < %v", i, v, prev)
		}
		prev = v
	}
}

func TestAblationUnsorted(t *testing.T) {
	r := run("ablation-sort", smallCfg())
	for _, row := range r.Rows {
		var inf float64
		if _, err := fmtSscan(strings.TrimSuffix(row[3], "x"), &inf); err != nil {
			t.Fatal(err)
		}
		if inf < 1 {
			t.Fatalf("unsorted should not need fewer entries: %v", row)
		}
	}
}

// fmtSscan wraps fmt.Sscan for floats.
func fmtSscan(s string, v *float64) (int, error) {
	return sscan(s, v)
}

func sscan(s string, v *float64) (int, error) { return fmt.Sscan(s, v) }
