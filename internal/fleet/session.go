package fleet

import (
	"math/rand"
	"strconv"
	"strings"

	"tango/internal/blkio"
	"tango/internal/resil"
	"tango/internal/sim"
	"tango/internal/tokenctl"
)

// session is one tenant workload placed somewhere on the fleet: a
// periodic analysis step that reads its working set — from local L2 when
// resident, from the object store (through the resilience-guarded
// fleet.read.objstore key) when not — and writes back a dirty fraction.
// Parameters are drawn once, seed-deterministically, at cluster
// construction; placement decides which node's engine runs the steps.
type session struct {
	id       int
	name     string
	priority int // {1, 5, 10}: weight = 100×priority

	workingSet float64 // bytes the session's analysis touches
	stepRead   float64 // bytes one step reads (≤ workingSet)
	dirtyFrac  float64 // fraction of a step written back to L2
	phase      float64 // step offset within the epoch (seconds)
	weight     int
	// cost is the placement score increment: the fraction of one node
	// frontend this session's steady-state demand occupies.
	cost float64

	// Mutable state. Owned by the session's current node: mutated either
	// from that node's engine context (step procs) or at a barrier while
	// the session is idle — never both at once (busy pins it).
	nd       *node // current node, nil while unplaced
	cg       *blkio.Cgroup
	tb       *tokenctl.Bucket // token-mode bucket (nil in central mode)
	resident float64          // bytes warm on the current node's L2
	restore  float64          // bytes to re-fetch from the store before stepping
	busy     bool             // a step proc is in flight

	// Step machinery, rebuilt at attach: one reusable proc runs each of
	// this session's steps on its current node, with the session itself as
	// the body (Run). The barrier starts it at the step instant (StartAt:
	// one event, no allocation) and it is finished between steps, so the
	// node's engine holds a coroutine per step in flight, not per session.
	proc *sim.Proc
}

// genSessions draws the session population. The generator is the only
// randomness in the fleet, fully determined by the seed. The sessions are
// elements of one slab and their names ("sess<id>") substrings of one
// string: two objects for the population, not three per session.
func genSessions(n int, seed int64, nodeBW float64) []*session {
	rng := rand.New(rand.NewSource(seed))
	prios := [3]int{1, 5, 10}
	// Exact size, so the builder never moves and every name shares its
	// buffer: "sess" and one digit per id, one more for each id >= 10^k.
	var names strings.Builder
	size := 5 * n
	for pow := 10; pow < n; pow *= 10 {
		size += n - pow
	}
	names.Grow(size)
	var digits [20]byte
	slab := make([]session, n)
	out := make([]*session, n)
	for i := range out {
		ws := (16 + rng.Float64()*16) * mb
		step := (4 + rng.Float64()*8) * mb
		if step > ws {
			step = ws
		}
		off := names.Len()
		names.WriteString("sess")
		names.Write(strconv.AppendInt(digits[:0], int64(i), 10))
		s := &slab[i]
		*s = session{
			id:         i,
			name:       names.String()[off:],
			priority:   prios[rng.Intn(3)],
			workingSet: ws,
			stepRead:   step,
			dirtyFrac:  0.05 + rng.Float64()*0.15,
			phase:      rng.Float64() * epochSec * 0.5,
		}
		s.weight = 100 * s.priority
		s.cost = step / epochSec / nodeBW
		out[i] = s
	}
	return out
}

// scheduleSteps arms this epoch's step for every idle session on the
// node. A session whose previous step is still in flight (an overrun:
// the step crossed one or more epoch boundaries) skips this period —
// back-pressure instead of pile-up, and the overrun itself is already
// counted as a bound violation when it completes.
// The barrier commits each step directly at its step instant (StartAt):
// one event per step, taking the queue slot the per-step arm event used
// to occupy, so step bodies still run at the same instant and in the
// same barrier order.
func (c *Cluster) scheduleSteps(nd *node, t0 float64, measured bool) {
	eng := nd.cn.Engine()
	nd.measured = measured
	for _, s := range nd.sessions {
		if s.busy {
			nd.skips++
			continue
		}
		s.busy = true
		eng.StartAt(t0+s.phase, s.proc, s)
	}
}

// Run is the session as the body of its own step proc (sim.Body): one
// analysis period on the node it is attached to:
//
//  1. restore — a planned migration left the working set store-side;
//     re-fetch it through the frontend and admit it to L2;
//  2. read — the resident fraction of the step comes from local L2, the
//     rest is a store miss (guarded by fleet.read.objstore) admitted to
//     L2 on the way in;
//  3. writeback — the dirty fraction of the step flushes to L2.
//
// Steps run entirely inside the node's engine window; the only
// cluster-visible effects are the Remote's traffic ledger and the
// node's epoch accumulators, both harvested at the next barrier.
// nd.measured is read at step start, inside the epoch that armed it, so it
// is the value the barrier published.
func (s *session) Run(p *sim.Proc) {
	nd := s.nd
	start, measured := p.Now(), nd.measured
	if nd.tok != nil && s.tb != nil {
		// Token mode funds the weight per step: sessions idle between
		// steps accrue lendable surplus, and the grant reverts at step
		// end. Central mode keeps the attach-time weight in force.
		nd.tok.Request(s.tb, s.weight)
	}
	if s.restore > 0 {
		nd.fetch(p, s, s.restore)
		s.restore = 0
	}
	hit := s.stepRead * (s.resident / s.workingSet)
	if hit > 0 {
		nd.ssd.Read(p, s.cg, hit)
	}
	if miss := s.stepRead - hit; miss > 0 {
		nd.fetch(p, s, miss)
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

// fetch reads bytes of the session's working set from the object store
// (guarded by fleet.read.objstore) and admits what arrived to L2.
func (nd *node) fetch(p *sim.Proc, s *session, bytes float64) {
	res := nd.rc.Key(resil.KeyFleetReadObjstore).Read(p, nd.rem.Device(), s.cg, bytes)
	nd.rem.AccountGet(res.Moved)
	nd.demandBytes += res.Moved
	if res.Moved > 0 {
		nd.ssd.Write(p, s.cg, res.Moved)
		s.resident = min(s.resident+res.Moved, s.workingSet)
	}
}
