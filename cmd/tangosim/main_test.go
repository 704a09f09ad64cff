package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
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

// runMain runs tangosim with args and returns its exit status and stderr.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TANGOSIM_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// TestBadFlagsAreErrors: each of these used to run — a negative or NaN
// -bound as "no error control", a negative -cache as the default, a
// negative -nodes as one node, a NaN -priority to completion. Each exits
// non-zero with one tangosim: line now; the flag checks exit 2 before any
// work, and core's config validation rejects the NaN priority.
func TestBadFlagsAreErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-bound", "-1"}, 2, "-bound"},
		{[]string{"-bound", "NaN"}, 2, "-bound"},
		{[]string{"-bound", "+Inf"}, 2, "-bound"},
		{[]string{"-cache", "-5"}, 2, "-cache"},
		{[]string{"-nodes", "-3"}, 2, "-nodes"},
		{[]string{"-nodes", "0"}, 2, "-nodes"},
		{[]string{"-priority", "NaN", "-steps", "4", "-grid", "33"}, 1, "Priority"},
	} {
		code, stderr := runMain(t, tc.args...)
		lines := strings.Split(strings.TrimSpace(stderr), "\n")
		if code != tc.code || len(lines) != 1 || !strings.HasPrefix(lines[0], "tangosim: ") || !strings.Contains(lines[0], tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d and one tangosim: line naming %s", tc.args, code, stderr, tc.code, tc.want)
		}
	}
}
