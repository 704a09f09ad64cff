package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"tango/internal/runpool"
	"tango/internal/sim"
	"tango/internal/trace"
)

// scanSettle is settle as it was before its two heaps: each migration
// scans every node in index order for the most and the least loaded.
func (c *Cluster) scanSettle(t float64) {
	alive := c.aliveCount()
	if alive < 2 {
		return
	}
	total := 0
	for _, nd := range c.nodes {
		if nd.alive {
			total += len(nd.sessions)
		}
	}
	target := (total + alive - 1) / alive
	moved, drained, restored := 0, 0.0, 0.0
	blocked := false
	for {
		var src, dst *node
		for _, nd := range c.nodes { // index order: deterministic ties
			if !nd.alive {
				continue
			}
			if src == nil || len(nd.sessions) > len(src.sessions) {
				src = nd
			}
			if dst == nil || len(nd.sessions) < len(dst.sessions) {
				dst = nd
			}
		}
		if src == nil || dst == nil || src == dst ||
			len(src.sessions)-len(dst.sessions) <= 1 || len(src.sessions) <= target {
			break
		}
		var s *session
		for _, o := range src.sessions {
			if !o.busy && (s == nil || o.id > s.id) {
				s = o
			}
		}
		if s == nil {
			blocked = true
			break
		}
		drain := s.resident * s.dirtyFrac
		src.rem.AccountPut(drain)
		drained += drain
		s.restore += s.resident
		restored += s.resident
		s.resident = 0
		c.move(s, src, dst)
		c.migrations++
		moved++
	}
	c.topoDirty = blocked
	if moved > 0 {
		c.emit(t, trace.KindMigrate, "moved=%d drained=%.0fMB restore=%.0fMB target=%d",
			moved, drained/mb, restored/mb, target)
	}
}

// The two heaps pick what the index-order scan picked: over random fleets
// with kills, revivals and sessions stalled mid-step across barriers (so
// that some settles stop blocked), a cluster settled by the heaps and one
// settled by the scan hold the same placement — every node's sessions in
// order, its allocator's entries in attach order, their weights — and the
// same migration count and trace after every barrier, at runpool width 1
// and 4.
func TestSettleMatchesScan(t *testing.T) {
	defer runpool.SetWorkers(runpool.Workers())
	rng := rand.New(rand.NewSource(29))
	var moves, blocked, revivals int
	for _, width := range []int{1, 4} {
		runpool.SetWorkers(width)
		for trial := 0; trial < 30; trial++ {
			nodes := 2 + rng.Intn(10)
			spec := fmt.Sprintf("stuck@%d:dev=ssd,dur=%d", 30+rng.Intn(300), 60+rng.Intn(240))
			for k := 1 + rng.Intn(3); k > 0; k-- {
				spec += fmt.Sprintf("; node-kill@%d:node=node%d,dur=%d", 60*(1+rng.Intn(6)), rng.Intn(nodes), 60*(1+rng.Intn(3)))
			}
			cfg := Config{Nodes: nodes, Sessions: 1 + rng.Intn(40*nodes), Seed: rng.Int63n(1000) + 1, Epochs: 10}
			var clusters [2]*Cluster
			for i := range clusters {
				cfg.Plan, cfg.Trace = killPlan(t, spec), trace.New(0)
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				clusters[i] = c
			}
			heaps, scan := clusters[0], clusters[1]
			for e := 0; e < cfg.Epochs; e++ {
				t0 := float64(e) * epochSec
				for _, c := range clusters {
					c.applyPlan(e, t0)
				}
				if heaps.topoDirty {
					before := heaps.migrations
					heaps.settle(t0)
					scan.scanSettle(t0)
					moves += heaps.migrations - before
					if heaps.topoDirty {
						blocked++
					}
				}
				got, want := placement(heaps), placement(scan)
				if got != want || heaps.migrations != scan.migrations || heaps.topoDirty != scan.topoDirty {
					t.Fatalf("width %d, trial %d %q, epoch %d: heaps (%d moves, dirty %t)\n%s\nscan (%d moves, dirty %t)\n%s",
						width, trial, spec, e, heaps.migrations, heaps.topoDirty, got, scan.migrations, scan.topoDirty, want)
				}
				for _, c := range clusters {
					// The barrier's settle has run: the epoch must not settle again.
					dirty := c.topoDirty
					c.topoDirty = false
					if err := c.epoch(e, (*node).scheduleSteps); err != nil {
						t.Fatal(err)
					}
					c.topoDirty = dirty
				}
			}
			if got, want := heaps.rec.Events(), scan.rec.Events(); !reflect.DeepEqual(got, want) {
				t.Fatalf("width %d, trial %d %q: traces differ:\n%v\n%v", width, trial, spec, got, want)
			}
			for _, ev := range heaps.rec.Filter(trace.KindFault) {
				if strings.HasPrefix(ev.Msg(), "node-revive") {
					revivals++
				}
			}
		}
	}
	t.Logf("%d moves, %d blocked settles, %d revivals", moves, blocked, revivals)
	if moves == 0 || blocked == 0 || revivals == 0 {
		t.Fatalf("%d moves, %d blocked settles, %d revivals; want each > 0", moves, blocked, revivals)
	}
}

// A worker lends its step calendar to each window it runs and takes it
// back drained, holding no engine: after every epoch each worker's
// calendar has no item pending and no engine, and the engine of a killed
// node is collected once a revival has replaced the node — nothing the
// workers keep between windows holds it.
func TestWorkerCalendarsHoldNoEngine(t *testing.T) {
	defer runpool.SetWorkers(runpool.Workers())
	for _, width := range []int{1, 2, 4} {
		runpool.SetWorkers(width)
		c, err := New(Config{Nodes: 6, Sessions: 240, Seed: 9, Epochs: 7,
			Plan: killPlan(t, "node-kill@120:node=node2,dur=120")})
		if err != nil {
			t.Fatal(err)
		}
		freed := make(chan struct{}, 1)
		for e := 0; e < c.cfg.Epochs; e++ {
			if err := c.epoch(e, (*node).scheduleSteps); err != nil {
				t.Fatal(err)
			}
			if len(c.cals) != min(width, len(c.nodes)) {
				t.Fatalf("width %d: %d calendars", width, len(c.cals))
			}
			for w := range c.cals {
				cal := reflect.ValueOf(&c.cals[w].Calendar).Elem()
				if items, eng := cal.FieldByName("items").Len(), cal.FieldByName("e"); items != 0 || !eng.IsNil() {
					t.Fatalf("width %d, epoch %d: worker %d's calendar keeps %d items and engine %v", width, e, w, items, eng)
				}
			}
			if nd := c.nodes[2]; e == 2 {
				if nd.alive {
					t.Fatal("node2 alive after its kill")
				}
				runtime.SetFinalizer(nd.cn.Engine(), func(*sim.Engine) { freed <- struct{}{} })
			}
		}
		runtime.GC()
		select {
		case <-freed:
		case <-time.After(5 * time.Second):
			t.Fatalf("width %d: the killed node's engine was not collected after its revival", width)
		}
	}
}
