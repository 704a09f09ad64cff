package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tango/internal/sim"
	"tango/internal/tokenctl"
)

// idOrderSchedule is scheduleSteps as it was while a node kept its
// sessions in id order: the steps go into the calendar in id order, and
// Arm sorts them by (time, seq).
func idOrderSchedule(nd *node, cal *sim.Calendar, t0 float64) {
	ids := slices.SortedFunc(slices.Values(nd.sessions), func(a, b *session) int { return a.id - b.id })
	cal.Reset(nd.cn.Engine(), len(ids))
	for _, s := range ids {
		if s.busy {
			nd.skips++
			continue
		}
		s.busy = true
		cal.Add(t0+s.phase, s)
	}
	cal.Arm()
}

// stepAt is one calendar item: a step instant and its session.
type stepAt struct {
	t  float64
	id int
}

// armed reads the calendar a worker lent the node's window as Arm left
// it: every item's instant and session, in the order the calendar fires
// them. sim keeps the items to itself, so they are read by reflection.
func armed(cal *sim.Calendar) []stepAt {
	items := reflect.ValueOf(cal).Elem().FieldByName("items")
	out := make([]stepAt, items.Len())
	for i := range out {
		it := items.Index(i)
		out[i] = stepAt{it.FieldByName("t").Float(), int(it.FieldByName("cb").Elem().Elem().FieldByName("id").Int())}
	}
	return out
}

// idleSteps lists the steps scheduleSteps is about to add, in the order it
// walks the node's sessions: each idle session at its step instant.
func idleSteps(nd *node, t0 float64) []stepAt {
	var out []stepAt
	for _, s := range nd.sessions {
		if !s.busy {
			out = append(out, stepAt{t0 + s.phase, s.id})
		}
	}
	return out
}

// A node that keeps its sessions in step order adds its steps to the
// calendar in the order they fire, and they fire as the id-order arming
// fired them: over random fleets in every control mode, with steps that
// overrun their epoch (SSD faults), node kills, revivals and settles,
// every node's calendar holds the same (instant, session) sequence at
// every epoch, every node engine's work counts (sim.Engine.Work) match at
// every barrier, and the reports match bit for bit.
func TestStepOrderFiresAsIDOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var skipped, migrations, kills int
	for trial := 0; trial < 60; trial++ {
		nodes := 2 + rng.Intn(6)
		spec := fmt.Sprintf("stuck@%d:dev=ssd,dur=%d; node-kill@%d:node=node%d,dur=%d",
			30+rng.Intn(300), 60+rng.Intn(150), 60*(1+rng.Intn(5)), rng.Intn(nodes), 60*(1+rng.Intn(4)))
		cfg := Config{
			Nodes: nodes, Sessions: 1 + rng.Intn(30*nodes), Seed: rng.Int63n(1000) + 1,
			Control: tokenctl.Mode(rng.Intn(3)), Plan: killPlan(t, spec),
		}
		run := func(sched func(*node, *sim.Calendar, float64), product bool) (string, []string) {
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			calendars := make([][]stepAt, cfg.Nodes) // each written by its node's window alone
			logged := func(nd *node, cal *sim.Calendar, t0 float64) {
				want := idleSteps(nd, t0)
				sched(nd, cal, t0)
				calendars[nd.idx] = armed(cal)
				if product && !slices.Equal(want, calendars[nd.idx]) {
					t.Errorf("trial %d, %s at %g: steps added as %v, fired as %v", trial, nd.name, t0, want, calendars[nd.idx])
				}
			}
			var epochs []string
			rep := runEpochs(t, c, logged, func(e int) {
				for _, nd := range c.nodes {
					n, queued, tombs, fired := nd.cn.Engine().Work()
					epochs = append(epochs, fmt.Sprintf("epoch %d %s alive=%t steps %v work %d %d %d %d",
						e, nd.name, nd.alive, calendars[nd.idx], n, queued, tombs, fired))
					calendars[nd.idx] = nil
				}
			})
			if product {
				skipped, migrations, kills = skipped+rep.SkippedSteps, migrations+rep.Migrations, kills+rep.Kills
			}
			return exact(rep), epochs
		}
		rep, epochs := run((*node).scheduleSteps, true)
		wantRep, wantEpochs := run(idOrderSchedule, false)
		if rep != wantRep {
			t.Fatalf("trial %d %+v: report\n%s\nwant (id order)\n%s", trial, cfg, rep, wantRep)
		}
		for i := range wantEpochs {
			if epochs[i] != wantEpochs[i] {
				t.Fatalf("trial %d %q: node\n%s\nwant (id order)\n%s", trial, spec, epochs[i], wantEpochs[i])
			}
		}
	}
	// The plans must reach what they are there for: steps still busy at an
	// epoch's head, kills, and sessions that move.
	t.Logf("%d skipped steps, %d migrations, %d kills", skipped, migrations, kills)
	if skipped == 0 || migrations == 0 || kills == 0 {
		t.Fatalf("plans reached %d skipped steps, %d migrations, %d kills; want each > 0", skipped, migrations, kills)
	}
}
