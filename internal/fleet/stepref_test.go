package fleet

import (
	"fmt"
	"sync"
	"testing"

	"tango/internal/resil"
	"tango/internal/runpool"
	"tango/internal/sim"
	"tango/internal/tokenctl"
)

// refStep is the session step as a blocking process, the form it had
// before it became a stepOp: it blocks at the same fetches and SSD
// transfers, so the two must arm the same events at the same instants
// and leave every figure bit for bit the same.
func refStep(s *session, p *sim.Proc) {
	nd := s.nd
	start, measured := p.Now(), nd.measured
	if nd.tok != nil && s.tb != nil {
		nd.tok.Request(s.tb, s.weight)
	}
	if s.restore > 0 {
		refFetch(nd, p, s, s.restore)
		s.restore = 0
	}
	hit := s.stepRead * (s.resident / s.workingSet)
	if hit > 0 {
		nd.ssd.Read(p, s.cg, hit)
	}
	if miss := s.stepRead - hit; miss > 0 {
		refFetch(nd, p, s, miss)
	}
	if dirty := s.stepRead * s.dirtyFrac; dirty > 0 {
		nd.ssd.Write(p, s.cg, dirty)
	}
	if nd.tok != nil && s.tb != nil {
		nd.tok.Release(s.tb)
	}
	if elapsed := p.Now() - start; elapsed > epochSec && measured {
		nd.viol++
	}
	nd.stepBytes += s.stepRead
	s.busy = false
}

// refFetch is stepOp's fetch and admit write, blocking.
func refFetch(nd *node, p *sim.Proc, s *session, bytes float64) {
	res := nd.rc.Key(resil.KeyFleetReadObjstore).Read(p, nd.rem.Device(), s.cg, bytes)
	nd.rem.AccountGet(res.Moved)
	nd.demandBytes += res.Moved
	if res.Moved > 0 {
		nd.ssd.Write(p, s.cg, res.Moved)
		s.resident = min(s.resident+res.Moved, s.workingSet)
	}
}

// runEpochs drives c epoch by epoch as Run does, arming steps with sched,
// and calls barrier after each epoch's closing barrier.
func runEpochs(t *testing.T, c *Cluster, sched func(*node, *sim.Calendar, float64), barrier func(e int)) *Report {
	t.Helper()
	for e := 0; e < c.cfg.Epochs; e++ {
		if err := c.epoch(e, sched); err != nil {
			t.Fatal(err)
		}
		barrier(e)
	}
	return c.report()
}

// exact renders v with every float as its exact binary value (%b:
// mantissa p exponent), so two renderings are equal only if every float
// in them has the same bits.
func exact(v any) string { return fmt.Sprintf("%+b", v) }

// runStepRef runs cfg at the given worker width with the step as a
// stepOp armed on the node's calendar (ref false) or as a process armed
// by its own SpawnAt (ref true), and returns the report and, per epoch,
// every node's figures: events armed, device bytes, store demand and its
// sessions' residency.
func runStepRef(t *testing.T, cfg Config, workers int, ref bool) (string, []string) {
	t.Helper()
	prev := runpool.Workers()
	runpool.SetWorkers(workers)
	defer runpool.SetWorkers(prev)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := (*node).scheduleSteps
	if ref {
		// Every engine a proc ran on, killed nodes' too. Steps are armed
		// inside the node windows, which may run in parallel.
		var mu sync.Mutex
		engines := map[*sim.Engine]bool{}
		sched = func(nd *node, _ *sim.Calendar, t0 float64) {
			eng := nd.cn.Engine()
			mu.Lock()
			engines[eng] = true
			mu.Unlock()
			for _, s := range nd.sessions {
				if s.busy {
					nd.skips++
					continue
				}
				s.busy = true
				eng.SpawnAt(t0+s.phase, s.name, func(p *sim.Proc) { refStep(s, p) })
			}
		}
		defer func() {
			for eng := range engines {
				eng.Close()
			}
		}()
	}
	var epochs []string
	rep := runEpochs(t, c, sched, func(e int) {
		for _, nd := range c.nodes {
			eng := nd.cn.Engine()
			fig := []any{nd.name, nd.alive, eng.Scheduled(), eng.Now(), nd.ssd.TotalBytes(),
				nd.rem.Device().TotalBytes(), nd.demandSum, c.violByNode[nd.idx]}
			for _, s := range nd.sessions {
				fig = append(fig, s.id, s.busy, s.resident, s.restore)
			}
			epochs = append(epochs, fmt.Sprintf("epoch %d %s", e, exact(fig)))
		}
	})
	return exact(rep), epochs
}

// TestStepMatchesProcStep holds the step's state machine, its starts
// armed on one calendar per node, to the blocking process it replaced,
// each start armed by its own SpawnAt, hop for hop: the same report, the
// same per-epoch figures and the same count of events armed on every node
// engine, bit for bit, under every control mode, node kills with and
// without a revival and its settle-back, SSD faults that stall steps
// across barriers, and one and two node windows at a time.
func TestStepMatchesProcStep(t *testing.T) {
	plans := []string{
		"node-kill@240:node=node1,dur=120",
		"node-kill@120:node=node2,dur=900",
		"stuck@70:dev=ssd,dur=100; latency@200:dev=ssd,add=0.5,dur=60; bw-collapse@300:dev=ssd,factor=0.1,dur=100",
		"bw-collapse@50:dev=ssd,factor=0.05,dur=200; node-kill@180:node=node0,dur=120",
	}
	var skipped, violations, migrations int
	for _, mode := range []tokenctl.Mode{tokenctl.ModeCentral, tokenctl.ModeTokens, tokenctl.ModeHybrid} {
		for _, spec := range plans {
			for _, workers := range []int{1, 2} {
				cfg := Config{Nodes: 4, Sessions: 40, Seed: 5, Control: mode, Plan: killPlan(t, spec)}
				rep, epochs := runStepRef(t, cfg, workers, false)
				wantRep, wantEpochs := runStepRef(t, cfg, workers, true)
				if rep != wantRep {
					t.Fatalf("%v %q width %d: report\n%s\nwant (proc step)\n%s", mode, spec, workers, rep, wantRep)
				}
				if len(epochs) != len(wantEpochs) {
					t.Fatalf("%v %q width %d: %d node figures, want %d", mode, spec, workers, len(epochs), len(wantEpochs))
				}
				for i := range wantEpochs {
					if epochs[i] != wantEpochs[i] {
						t.Fatalf("%v %q width %d: node figures\n%s\nwant (proc step)\n%s", mode, spec, workers, epochs[i], wantEpochs[i])
					}
				}
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				r, err := c.Run()
				if err != nil {
					t.Fatal(err)
				}
				if exact(r) != rep {
					t.Fatalf("%v %q width %d: Run's report differs from runEpochs'", mode, spec, workers)
				}
				skipped += r.SkippedSteps
				violations += r.Violations
				migrations += r.Migrations
			}
		}
	}
	// The plans must reach what they are there for: steps that overrun
	// into later epochs, and sessions that move.
	if skipped == 0 || violations == 0 || migrations == 0 {
		t.Fatalf("plans reached %d skipped steps, %d violations, %d migrations; want each > 0", skipped, violations, migrations)
	}
}
