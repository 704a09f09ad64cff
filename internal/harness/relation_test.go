package harness

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"tango/internal/fleet"
	"tango/internal/runpool"
	"tango/internal/trace"
)

// simulated runs args, traced or not, and returns what it simulated:
// every step's numbers for one node, the totals line for a fleet, or the
// run's error; "" for a spec the explorer skips.
func simulated(args []string, traced bool) string {
	spec, err := ParseSpec(args)
	if err != nil || overCaps(spec) {
		return ""
	}
	var rec *trace.Recorder
	if traced {
		rec = trace.New(4096)
	}
	if !spec.Fleet() {
		run, err := spec.Run(rec, io.Discard)
		if err != nil {
			return fmt.Sprintf("run: %v", err)
		}
		return fmt.Sprint(stepBits(run.Session.Stats()))
	}
	c, err := fleet.New(spec.FleetConfig(rec))
	if err != nil {
		return fmt.Sprintf("fleet.New: %v", err)
	}
	rep, err := c.Run()
	if err != nil {
		return fmt.Sprintf("fleet run: %v", err)
	}
	return rep.TotalsLine()
}

// TestTracingAndWidthChangeNothing is a relation between runs over
// TestExplore's generator: 400 single-node and 100 fleet argument
// lists (16 and 4 under -short), each run untraced and traced on a pool
// one job wide, then again four wide, must simulate the same thing all
// four times — every step's numbers bit for bit, or the fleet's totals
// line. The width is set once per half, before any job of it is submitted.
func TestTracingAndWidthChangeNothing(t *testing.T) {
	t.Cleanup(resetMemos)
	defer runpool.SetWorkers(0)
	single, fleets := 400, 100
	if testing.Short() {
		single, fleets = 16, 4
	}
	rng := rand.New(rand.NewSource(2))
	var lists [][]string
	for i := range single + fleets {
		lists = append(lists, drawArgs(rng, i >= single))
	}
	var halves [2][][2]string
	for h, width := range []int{1, 4} {
		runpool.SetWorkers(width)
		halves[h] = fanOut("relation", lists, func(args []string) [2]string {
			return [2]string{simulated(args, false), simulated(args, true)}
		})
	}
	ran := 0
	for i, args := range lists {
		w1, w4 := halves[0][i], halves[1][i]
		switch {
		case w1[0] != w1[1] || w4[0] != w4[1]:
			t.Errorf("tracing changes what tangosim %q simulates", args)
		case w1 != w4:
			t.Errorf("pool width 1 and 4 simulate tangosim %q differently", args)
		}
		if w1[0] != "" {
			ran++
		}
	}
	if ran < len(lists)*3/4 {
		t.Fatalf("only %d of %d argument lists ran", ran, len(lists))
	}
}
