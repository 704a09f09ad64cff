package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadInputsAreErrors: each of these used to panic (an empty trace
// indexed ops[-1], a negative -count reached makeslice, a negative
// -probe-mb panicked in the probe proc) or replay garbage (NaN and +Inf
// lines served "0.0 GB"). Each is an error now, naming what is wrong.
func TestBadInputsAreErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	empty := write("empty.trace", "# time_seconds,bytes,direction\n")
	nanInf := write("naninf.trace", "# time_seconds,bytes,direction\nNaN,1e6,w\n5,+Inf,w\n")
	ok := write("ok.trace", "0,1e6,w\n")
	for _, tc := range []struct {
		cmd  func([]string) error
		args []string
		want string
	}{
		{replay, []string{"-in", empty}, "trace has no ops"},
		{replay, []string{"-in", ok, "-in2", empty}, "trace has no ops"},
		{export, []string{"-count", "-1", "-out", filepath.Join(dir, "x.trace")}, "-count"},
		{replay, []string{"-in", ok, "-probe", "1", "-probe-mb", "-5"}, "-probe-mb"},
		{replay, []string{"-in", ok, "-probe", "NaN"}, "-probe"},
		{replay, []string{"-in", nanInf}, `trace line 2: bad time "NaN"`},
	} {
		err := tc.cmd(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "x.trace")); !os.IsNotExist(err) {
		t.Errorf("export -count -1 left an output file behind (stat: %v)", err)
	}

	// The checks reject only what is wrong: a small export replays.
	small := filepath.Join(dir, "small.trace")
	if err := export([]string{"-noise", "1", "-count", "2", "-out", small}); err != nil {
		t.Fatal(err)
	}
	if err := replay([]string{"-in", small, "-probe", "30"}); err != nil {
		t.Fatal(err)
	}
}
