package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs tangosim itself when a test re-executes the binary with
// TANGOSIM_TEST_MAIN set, so a test sees a real exit status and stderr.
func TestMain(m *testing.M) {
	if os.Getenv("TANGOSIM_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs tangosim with args and returns its exit status, stdout and
// stderr.
func runMain(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TANGOSIM_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// TestBadFlagsAreErrors: each of these used to run — a negative or NaN
// -bound as "no error control", a negative -cache as the default, a
// negative -nodes as one node, a NaN -priority to completion, a fleet run
// with single-node flags no run could use — or failed only after the
// field was generated and decomposed. harness.Spec.Validate rejects each
// before any work, in single-node and fleet mode alike: exit 2, one
// tangosim: line naming the flag, nothing on stdout.
func TestBadFlagsAreErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-bound", "-1"}, "-bound"},
		{[]string{"-bound", "NaN"}, "-bound"},
		{[]string{"-bound", "+Inf"}, "-bound"},
		{[]string{"-bound", "0.05"}, "-bound"},
		{[]string{"-cache", "-5"}, "-cache"},
		{[]string{"-nodes", "-3"}, "-nodes"},
		{[]string{"-nodes", "0"}, "-nodes"},
		{[]string{"-priority", "NaN", "-steps", "4", "-grid", "33"}, "-priority"},
		{[]string{"-priority", "-1"}, "-priority"},
		{[]string{"-nodes", "2", "-policy", "bogus", "-app", "nope", "-grid", "-4", "-steps", "0"}, "policy"},
		{[]string{"-nodes", "2", "-faults", "auto"}, "-faults auto"},
		{[]string{"-faults", "weight-fail@600:cgroup=XGC"}, "cgroup"},
		{[]string{"-grid", "60000", "-steps", "2"}, "-grid 60000"},
		{[]string{"-steps", "100000000"}, "-steps 100000000"},
		{[]string{"-nodes", "10000000", "-sessions", "10000000"}, "-nodes 10000000"},
	} {
		for _, args := range [][]string{tc.args, append([]string{"-nodes", "2"}, tc.args...)} {
			code, stdout, stderr := runMain(t, args...)
			lines := strings.Split(strings.TrimSpace(stderr), "\n")
			if code != 2 || stdout != "" || len(lines) != 1 || !strings.HasPrefix(lines[0], "tangosim: ") || !strings.Contains(lines[0], tc.want) {
				t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, no stdout and one tangosim: line naming %s", args, code, stdout, stderr, tc.want)
			}
		}
	}
}

// TestGoldenStdout pins tangosim's stdout byte for byte: a traced
// single-node run through a generated fault plan with the cache, resil,
// hedging and hybrid control; an untraced verbose run of another app and
// policy under token control; and a traced fleet run through a node kill.
// The files were written by the binary before its run path moved onto
// harness.Spec; a change that moves an output on purpose rewrites them
// with `go run ./cmd/tangosim <args> > cmd/tangosim/testdata/<name>.golden`.
func TestGoldenStdout(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"auto-faults-hybrid", []string{"-grid", "65", "-steps", "20", "-faults", "auto", "-resil", "-hedge", "-prefetch", "-control", "hybrid", "-trace"}},
		{"cfd-storage-tokens", []string{"-grid", "65", "-steps", "20", "-app", "cfd", "-policy", "storage", "-noise", "3", "-control", "tokens", "-v"}},
		{"fleet-node-kill", []string{"-nodes", "8", "-faults", "node-kill@120:node=node1,dur=120", "-trace"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := runMain(t, tc.args...)
		if code != 0 || stderr != "" {
			t.Errorf("%s: exit %d, stderr %q", tc.golden, code, stderr)
			continue
		}
		got, wantLines := strings.Split(stdout, "\n"), strings.Split(string(want), "\n")
		for i := range max(len(got), len(wantLines)) {
			if i >= len(got) || i >= len(wantLines) || got[i] != wantLines[i] {
				t.Errorf("%s: stdout differs from the golden file at line %d:\n got %q\nwant %q",
					tc.golden, i+1, line(got, i), line(wantLines, i))
				break
			}
		}
	}
}

// line is lines[i], or "<end>" past the last line.
func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end>"
}
