package fleet

import (
	"math/rand"
	"strconv"
	"strings"

	"tango/internal/blkio"
	"tango/internal/device"
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
	// from that node's engine context (its steps) or at a barrier while
	// the session is idle — never both at once (busy pins it).
	nd       *node // current node, nil while unplaced
	cg       *blkio.Cgroup
	tb       *tokenctl.Bucket // token-mode bucket (nil in central mode)
	resident float64          // bytes warm on the current node's L2
	restore  float64          // bytes to re-fetch from the store before stepping
	busy     bool             // a step is armed or in flight
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
		ws := (16 + float64(rng.Float64()*16)) * mb
		step := (4 + float64(rng.Float64()*8)) * mb
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
			dirtyFrac:  0.05 + float64(rng.Float64()*0.15),
			phase:      rng.Float64() * epochSec * 0.5,
		}
		s.weight = 100 * s.priority
		s.cost = step / epochSec / nodeBW
		out[i] = s
	}
	return out
}

// scheduleSteps arms this epoch's step for every idle session on the
// node, at the head of the node's window. A session whose previous step
// is still in flight (an overrun: the step crossed one or more epoch
// boundaries) skips this period — back-pressure instead of pile-up, and
// the overrun itself is already counted as a bound violation when it
// completes. Each step is an item of the worker's calendar, taking the
// node engine's seqs, added in step order, so Arm finds the items in
// order; only the node's own state is touched, so steps start at the same
// instant and in the same order at every worker width.
func (nd *node) scheduleSteps(cal *sim.Calendar, t0 float64) {
	cal.Reset(nd.cn.Engine(), len(nd.sessions))
	for _, s := range nd.sessions {
		if s.busy {
			nd.skips++
			continue
		}
		s.busy = true
		cal.Add(t0+s.phase, s)
	}
	cal.Arm()
}

// Fire is the step instant: it takes a step op off the node's free chain,
// or a new one, and runs the step. nd.measured is read here, inside the
// window that armed the step, so it is the value that window set.
func (s *session) Fire() {
	nd := s.nd
	op := nd.ops
	if op != nil {
		nd.ops = op.next
	} else {
		op = nd.opSlab.Next()
	}
	*op = stepOp{s: s, start: nd.cn.Engine().Now(), measured: nd.measured}
	if nd.tok != nil && s.tb != nil {
		// Token mode funds the weight per step: sessions idle between
		// steps accrue lendable surplus, and the grant reverts at step
		// end. Central mode keeps the attach-time weight in force.
		nd.tok.Request(s.tb, s.weight)
	}
	op.run()
}

// stepOp is one session step in flight: one analysis period on the node
// the session is attached to, made of engine callbacks — every fetch and
// SSD transfer reports its end to the op (TransferDone). A node takes an
// op off its free chain at the step instant and puts it back when the step
// ends, so it holds one per step in flight, never one per session. A
// killed node's ops die with its engine.
//
// Steps run entirely inside the node's engine window; the only
// cluster-visible effects are the Remote's traffic ledger and the node's
// epoch accumulators, both harvested at the next barrier.
type stepOp struct {
	s        *session
	next     *stepOp // the node's free chain
	start    float64 // the step instant
	miss     float64 // bytes of the step L2 does not hold
	measured bool    // the epoch that armed the step is measured
	stage    stepStage
	after    stepStage    // where a fetch goes once its bytes are in L2
	fetch    resil.ReadOp // the guarded store read in flight
	tok      device.Token // the SSD transfer in flight
}

// stepStage is where a step stands: what run does next.
type stepStage uint8

const (
	stageRestore  stepStage = iota // re-fetch what a planned migration left store-side
	stageFetched                   // a store fetch has ended: admit what arrived to L2
	stageAdmitted                  // the admit write has ended
	stageHit                       // read the resident fraction of the step from L2
	stageMiss                      // fetch the rest from the store
	stageDirty                     // write the dirty fraction back to L2
	stageEnd                       // account the step and free the op
)

// run carries the step on from where it stands through every transfer
// that ends inside its call, until one is in flight or the step ends. It
// does at each instant what the step did when it ran as a process, which
// blocked at the same transfers.
func (op *stepOp) run() {
	s := op.s
	nd := s.nd
	for {
		switch op.stage {
		case stageRestore:
			op.stage = stageHit
			if bytes := s.restore; bytes > 0 {
				s.restore = 0
				if op.fetchStore(bytes, stageHit) {
					return
				}
			}
		case stageFetched:
			moved := op.fetch.Res.Moved
			nd.rem.AccountGet(moved)
			nd.demandBytes += moved
			op.stage = op.after
			if moved > 0 {
				op.stage = stageAdmitted
				if op.transfer(moved, true) {
					return
				}
			}
		case stageAdmitted:
			s.resident = min(s.resident+op.fetch.Res.Moved, s.workingSet)
			op.stage = op.after
		case stageHit:
			hit := float64(s.stepRead * (s.resident / s.workingSet))
			op.miss = s.stepRead - hit
			op.stage = stageMiss
			if hit > 0 && op.transfer(hit, false) {
				return
			}
		case stageMiss:
			op.stage = stageDirty
			if op.miss > 0 && op.fetchStore(op.miss, stageDirty) {
				return
			}
		case stageDirty:
			op.stage = stageEnd
			if dirty := s.stepRead * s.dirtyFrac; dirty > 0 && op.transfer(dirty, true) {
				return
			}
		case stageEnd:
			if nd.tok != nil && s.tb != nil {
				nd.tok.Release(s.tb)
			}
			if elapsed := nd.cn.Engine().Now() - op.start; elapsed > epochSec && op.measured {
				nd.viol++
			}
			nd.stepBytes += s.stepRead
			s.busy = false
			op.next, nd.ops = nd.ops, op
			return
		}
	}
}

// fetchStore starts a read of bytes from the object store, guarded by
// fleet.read.objstore, and reports whether it is in flight; the step goes
// on at stageFetched, then at after.
func (op *stepOp) fetchStore(bytes float64, after stepStage) bool {
	nd := op.s.nd
	op.stage, op.after = stageFetched, after
	return op.fetch.Start(nd.rc.Key(resil.KeyFleetReadObjstore), nd.rem.Device(), op.s.cg, bytes, op)
}

// transfer starts an SSD read or write of bytes and reports whether it is
// in flight.
func (op *stepOp) transfer(bytes float64, write bool) bool {
	ended, _ := op.s.nd.ssd.Begin(op.s.cg, bytes, write, false, &op.tok, 0, op)
	return !ended
}

// TransferDone is the fetch or SSD transfer in flight ending.
func (op *stepOp) TransferDone(*device.Token, error) { op.run() }
