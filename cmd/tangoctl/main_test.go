package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tango/internal/cliutil"
)

// TestMain runs tangoctl itself when a test re-executes the binary with
// TANGOCTL_TEST_MAIN set, so a test sees a real exit status and stderr.
func TestMain(m *testing.M) {
	if os.Getenv("TANGOCTL_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs tangoctl with args and returns its exit status and stderr.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TANGOCTL_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// TestDecomposeRejectsOversizedDims: a point count that wraps int used to
// pass the data-length check and panic in makeslice, and one the file
// cannot hold allocated all n floats before failing. Each is one error
// line and a non-zero exit now.
func TestDecomposeRejectsOversizedDims(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "two.raw")
	if err := cliutil.WriteRawFloat64s(in, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	for _, dims := range []string{"4294967296x4294967296", "100000x100000", "3"} {
		code, stderr := runMain(t, "decompose", "-in", in, "-dims", dims, "-out", filepath.Join(dir, "x.tng"))
		lines := strings.Split(strings.TrimSpace(stderr), "\n")
		if code == 0 || len(lines) != 1 || !strings.HasPrefix(lines[0], "tangoctl: ") {
			t.Errorf("-dims %s: exit %d, stderr %q; want one tangoctl: line and a non-zero exit", dims, code, stderr)
		}
	}
}

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

// TestRecomposeRejectsBadSelectors: -fraction 1.5 and -fraction -1 used to
// be clamped to the full stream and the base, -fraction NaN read as unset
// (the full stream), and -bound with -fraction took the bound. Each is one
// error line and a non-zero exit now, before -out is created.
func TestRecomposeRejectsBadSelectors(t *testing.T) {
	dir := t.TempDir()
	raw, tng, out := filepath.Join(dir, "field.raw"), filepath.Join(dir, "field.tng"), filepath.Join(dir, "rec.raw")
	data := make([]float64, 9*9)
	for i := range data {
		data[i] = float64(i%7) * 0.5
	}
	if err := cliutil.WriteRawFloat64s(raw, data); err != nil {
		t.Fatal(err)
	}
	if err := decompose([]string{"-in", raw, "-dims", "9x9", "-levels", "2", "-bounds", "0.1", "-out", tng}); err != nil {
		t.Fatal(err)
	}
	for _, sel := range [][]string{
		{"-fraction", "1.5"}, {"-fraction", "-1"}, {"-fraction", "NaN"},
		{"-bound", "0.1", "-fraction", "0.2"}, {"-bound", "NaN"},
	} {
		code, stderr := runMain(t, append([]string{"recompose", "-in", tng, "-out", out}, sel...)...)
		lines := strings.Split(strings.TrimSpace(stderr), "\n")
		if code == 0 || len(lines) != 1 || !strings.HasPrefix(lines[0], "tangoctl: ") {
			t.Errorf("%v: exit %d, stderr %q; want one tangoctl: line and a non-zero exit", sel, code, stderr)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%v left an output file behind (stat: %v)", sel, err)
			os.Remove(out)
		}
	}
	for _, sel := range [][]string{nil, {"-fraction", "0"}, {"-fraction", "1"}, {"-bound", "0.1"}} {
		if code, stderr := runMain(t, append([]string{"recompose", "-in", tng, "-out", out}, sel...)...); code != 0 {
			t.Errorf("%v: exit %d, stderr %q", sel, code, stderr)
		}
	}
}
