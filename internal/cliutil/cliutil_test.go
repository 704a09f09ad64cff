package cliutil

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"tango/internal/core"
	"tango/internal/errmetric"
)

func TestParseDims(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		ok   bool
	}{
		{"512x512", []int{512, 512}, true},
		{"64", []int{64}, true},
		{"4x4x4", []int{4, 4, 4}, true},
		{" 8 x 8 ", []int{8, 8}, true},
		{"", nil, false},
		{"0x4", nil, false},
		{"-3", nil, false},
		{"axb", nil, false},
		{"4294967296x4294967296", nil, false}, // 2^64 points: wrapped to 0
		{"3037000500x3037000500", nil, false}, // just over MaxInt64
		{"3037000499x3037000499", []int{3037000499, 3037000499}, true},
	}
	for _, c := range cases {
		got, err := ParseDims(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseDims(%q) err = %v", c.in, err)
			continue
		}
		if !c.ok {
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("ParseDims(%q) = %v", c.in, got)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ParseDims(%q) = %v", c.in, got)
			}
		}
	}
}

func TestParseBounds(t *testing.T) {
	got, err := ParseBounds("0.1, 0.01,1e-3")
	if err != nil || len(got) != 3 || got[2] != 1e-3 {
		t.Fatalf("ParseBounds = %v, %v", got, err)
	}
	if got, err := ParseBounds(""); err != nil || got != nil {
		t.Fatalf("empty = %v, %v", got, err)
	}
	if _, err := ParseBounds("0.1,oops"); err == nil {
		t.Fatal("bad bound accepted")
	}
}

func TestParseMetric(t *testing.T) {
	cases := map[string]errmetric.Kind{
		"nrmse": errmetric.NRMSE, "NRMSE": errmetric.NRMSE,
		"psnr": errmetric.PSNR, "PSNR": errmetric.PSNR, "Psnr": errmetric.PSNR,
	}
	for in, want := range cases {
		got, err := ParseMetric(in)
		if err != nil || got != want {
			t.Errorf("ParseMetric(%q) = %v, %v", in, got, err)
		}
	}
	// Anything else used to mean NRMSE without saying so.
	for _, in := range []string{"foo", "", "nrmse ", "rmse", "psnr2"} {
		if got, err := ParseMetric(in); err == nil {
			t.Errorf("ParseMetric(%q) = %v, want an error", in, got)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]core.Policy{
		"none": core.NoAdapt, "NoAdapt": core.NoAdapt,
		"storage": core.StorageOnly, "storage-only": core.StorageOnly,
		"app": core.AppOnly, "application": core.AppOnly,
		"cross": core.CrossLayer, "TANGO": core.CrossLayer,
	}
	for in, want := range cases {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestRawFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.raw")
	data := []float64{0, 1.5, -2.25, math.Pi, math.Inf(1)}
	if err := WriteRawFloat64s(path, data); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRawFloat64s(path, len(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("value %d: %v vs %v", i, got[i], data[i])
		}
	}
	// Short and long files rejected, before allocating: a point count
	// far past the file's size fails at once.
	for _, n := range []int{len(data) + 1, len(data) - 1, 1e10, math.MaxInt} {
		if _, err := ReadRawFloat64s(path, n); err == nil {
			t.Fatalf("%d-byte file accepted for %d points", 8*len(data), n)
		}
	}
	// Missing file.
	if _, err := ReadRawFloat64s(filepath.Join(t.TempDir(), "nope"), 1); err == nil {
		t.Fatal("missing file accepted")
	}
	_ = os.Remove(path)
}
