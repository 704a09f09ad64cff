package harness

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tango/internal/runpool"
)

// TestTracingAndWidthChangeNothing is a relation between runs over
// TestExplore's generator: 400 single-node and 100 fleet argument
// lists (16 and 4 under -short), each run untraced and traced on a pool
// one job wide, then again four wide, must simulate the same thing all
// four times — every step's numbers bit for bit, or the fleet's totals
// line — and the checker must find nothing in any of them. The width is
// set once per half, before any job of it is submitted.
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
	var halves [2][][2]outcome
	for h, width := range []int{1, 4} {
		runpool.SetWorkers(width)
		halves[h] = fanOut("relation", lists, func(args []string) [2]outcome {
			untraced, _ := simulate(args, false)
			traced, _ := simulate(args, true)
			return [2]outcome{untraced, traced}
		})
	}
	var n tally
	ran := 0
	for i, args := range lists {
		w1, w4 := halves[0][i], halves[1][i]
		for _, run := range [...]outcome{w1[0], w1[1], w4[0], w4[1]} {
			if n.add(run); len(run.findings) > 0 {
				report(t, strings.Join(run.findings, "; "), args)
			}
		}
		switch {
		case w1[0].sim != w1[1].sim || w4[0].sim != w4[1].sim:
			t.Errorf("tracing changes what tangosim %q simulates", args)
		case w1[0].sim != w4[0].sim:
			t.Errorf("pool width 1 and 4 simulate tangosim %q differently", args)
		}
		if w1[0].sim != "" {
			ran++
		}
	}
	if ran < len(lists)*3/4 {
		t.Fatalf("only %d of %d argument lists ran", ran, len(lists))
	}
	n.require(t)
}

// TestTighterBoundReadsNoLess is the strict relation of Figs 11 and 14b
// over TestExplore's generator: 200 single-node argument lists (16 under
// -short), each run at a -bound on the ladder's first three rungs and
// again one rung tighter, must read a cursor at least as far on every
// step of the tighter run, and the checker must find nothing in either
// (its bound check holds the tighter run to its own rung).
func TestTighterBoundReadsNoLess(t *testing.T) {
	t.Cleanup(resetMemos)
	pairs := 200
	if testing.Short() {
		pairs = 16
	}
	rng := rand.New(rand.NewSource(3))
	var lists [][]string
	for range pairs {
		args := slices.DeleteFunc(drawArgs(rng, false), func(a string) bool { return strings.HasPrefix(a, "-bound=") })
		r := rng.Intn(3)
		for _, b := range NRMSEBounds[r : r+2] {
			lists = append(lists, append(slices.Clip(args), fmt.Sprintf("-bound=%v", b)))
		}
	}
	runs := fanOut("tighter", lists, func(args []string) outcome {
		run, _ := simulate(args, false)
		return run
	})
	ran := 0
	for i := 0; i < len(runs); i += 2 {
		loose, tight := runs[i], runs[i+1]
		for j, run := range [...]outcome{loose, tight} {
			if len(run.findings) > 0 {
				report(t, strings.Join(run.findings, "; "), lists[i+j])
			}
		}
		if len(loose.stats) == 0 {
			continue
		}
		ran++
		for s, st := range tight.stats {
			if st.Cursor < loose.stats[s].Cursor {
				report(t, fmt.Sprintf("step %d reads to cursor %d, %d at the looser bound", s, st.Cursor, loose.stats[s].Cursor), lists[i+1])
				break
			}
		}
	}
	if ran < pairs*3/4 {
		t.Fatalf("only %d of %d pairs ran", ran, pairs)
	}
}
