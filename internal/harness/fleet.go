package harness

import (
	"fmt"
	"math"

	"tango/internal/fault"
	"tango/internal/fleet"
	"tango/internal/objstore"
)

// fleetPoint is one sweep point of the fleet experiment: a cluster shape
// plus its non-numeric row label.
type fleetPoint struct {
	label    string
	nodes    int
	sessions int
}

// fleetSweep scales the canonical 10→1000 node / 100→100k session sweep
// by cfg.FleetScale, keeping every point at a runnable floor.
func fleetSweep(scale float64) []fleetPoint {
	base := []fleetPoint{
		{"10n/100s", 10, 100},
		{"100n/10ks", 100, 10_000},
		{"1000n/100ks", 1000, 100_000},
	}
	out := make([]fleetPoint, len(base))
	for i, p := range base {
		n := int(math.Round(float64(p.nodes) * scale))
		s := int(math.Round(float64(p.sessions) * scale))
		if n < 2 {
			n = 2
		}
		if s < 8 {
			s = 8
		}
		out[i] = fleetPoint{p.label, n, s}
	}
	return out
}

// fleetKillPlan kills max(1, nodes/10) nodes at the epoch-4 barrier for
// two epochs — the fleet arm's canonical fault schedule.
func fleetKillPlan(nodes int) *fault.Plan {
	k := nodes / 10
	if k < 1 {
		k = 1
	}
	p := &fault.Plan{}
	for i := 0; i < k; i++ {
		p.Events = append(p.Events, fault.Event{
			At: 240, Kind: fault.NodeKill, Target: fmt.Sprintf("node%d", i), Duration: 120,
		})
	}
	return p
}

// runFleet builds the cluster fc describes and runs it to its report.
func runFleet(fc fleet.Config) *fleet.Report {
	c, err := fleet.New(fc)
	if err != nil {
		panic(err)
	}
	rep, err := c.Run()
	if err != nil {
		panic(err)
	}
	return rep
}

// fleetExp sweeps cluster shapes from tens to (at FleetScale 1) a thousand
// nodes, with and without a mass node-kill, and reports aggregate
// delivered throughput, per-node bound violations, migrations,
// object-store egress, and post-kill throughput recovery. Each run is an
// N-node fleet of full single-node stacks over a shared object store
// (internal/fleet); the whole sweep is deterministic in cfg.Seed at any
// -parallel width.
func fleetExp(cfg Config) *Result {
	r := &Result{
		ID:    "fleet",
		Title: "Fleet-scale cluster over a shared object-store capacity tier",
		Header: []string{"scale", "plan", "agg MB/s", "bound viol", "migrations",
			"kills", "egress GB", "cost $", "recovery %"},
	}
	type arm struct {
		fleetPoint
		name string
		plan *fault.Plan
	}
	var arms []arm
	for _, p := range fleetSweep(cfg.FleetScale) {
		arms = append(arms, arm{p, "none", nil}, arm{p, "node-kill", fleetKillPlan(p.nodes)})
	}
	addRows(r, arms, func(a arm) []string {
		rep := runFleet(fleet.Config{
			Nodes:    a.nodes,
			Sessions: a.sessions,
			Seed:     cfg.Seed,
			Plan:     a.plan,
		})
		return []string{a.label, a.name,
			fmt.Sprintf("%.1f", rep.AggMBps),
			fmt.Sprintf("%d", rep.Violations),
			fmt.Sprintf("%d", rep.Migrations),
			fmt.Sprintf("%d", rep.Kills),
			objstore.FmtGB(rep.Store.EgressBytes),
			fmt.Sprintf("%.4f", rep.StoreCost),
			fmt.Sprintf("%.0f", 100*rep.RecoveryFrac)}
	})
	r.Notef("Store: %s per-node frontend, 4:1 oversubscribed shared egress, 30 ms/request (objstore.Default).",
		"200 MB/s")
	r.Notef("node-kill arm takes max(1, N/10) nodes out at the epoch-4 barrier for two epochs; their sessions restart cold on survivors and settle back after revival (docs/fleet.md).")
	r.Notef("Expectations: zero bound violations on the no-fault arm, ≥80%% post-kill throughput recovery.")
	return r
}
