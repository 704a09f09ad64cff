package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tango/internal/cliutil"
)

// TestDecomposeRejectsUnknownMetric: `-metric foo` used to fall through to
// NRMSE and write a hierarchy whose ladder meant something other than what
// was asked for. It is an error now, raised before -out is created.
func TestDecomposeRejectsUnknownMetric(t *testing.T) {
	dir := t.TempDir()
	in, out := filepath.Join(dir, "field.raw"), filepath.Join(dir, "field.tng")
	data := make([]float64, 9*9)
	for i := range data {
		data[i] = float64(i%7) * 0.5
	}
	if err := cliutil.WriteRawFloat64s(in, data); err != nil {
		t.Fatal(err)
	}
	args := func(metric, bounds string) []string {
		return []string{"-in", in, "-dims", "9x9", "-levels", "2", "-metric", metric, "-bounds", bounds, "-out", out}
	}
	err := decompose(args("foo", "0.1"))
	if err == nil || !strings.Contains(err.Error(), `"foo"`) {
		t.Fatalf("-metric foo: error %v, want one naming the value", err)
	}
	if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
		t.Fatalf("-metric foo left an output file behind (stat: %v)", statErr)
	}
	for _, ok := range [][2]string{{"nrmse", "0.1"}, {"PSNR", "20"}} {
		if err := decompose(args(ok[0], ok[1])); err != nil {
			t.Fatalf("-metric %s: %v", ok[0], err)
		}
		h, err := loadHierarchy(out)
		if err != nil {
			t.Fatal(err)
		}
		if got := h.Opts().Metric.String(); !strings.EqualFold(got, ok[0]) {
			t.Fatalf("-metric %s wrote a %s hierarchy", ok[0], got)
		}
	}
}
