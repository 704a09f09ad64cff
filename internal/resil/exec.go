package resil

import (
	"errors"

	"tango/internal/blkio"
	"tango/internal/device"
	"tango/internal/sim"
	"tango/internal/trace"
)

// race is the pooled state of one operation's device transfers: the token
// of a deadlined attempt (toks[0] alone) or both legs of a hedged read. A
// device holds the token until the transfer ends, so it cannot be a local.
type race struct {
	toks    [2]device.Token // fast leg, slow leg
	winner  int             // index of the first leg to deliver; -1 while none has
	pending int             // legs still in flight
	waiter  *sim.Proc       // the process HedgedRead parked
}

//tango:hotpath
func (c *Controller) getRace() *race {
	if n := len(c.raceFree); n > 0 {
		r := c.raceFree[n-1]
		c.raceFree[n-1] = nil
		c.raceFree = c.raceFree[:n-1]
		return r
	}
	return new(race)
}

//tango:hotpath
func (c *Controller) putRace(r *race) {
	*r = race{}
	c.raceFree = append(c.raceFree, r)
}

// TransferDone is a device reporting that a leg ended, finished and
// accounted: the first to deliver wins and cancels the other, the last
// to end wakes the waiter.
//
//tango:hotpath
func (r *race) TransferDone(tok *device.Token, err error) {
	if err == nil && r.winner < 0 {
		r.winner = 0
		if tok == &r.toks[1] {
			r.winner = 1
		}
		r.toks[1-r.winner].Cancel()
	}
	if r.pending--; r.pending == 0 {
		r.waiter.Engine().Wake(r.waiter)
	}
}

// ReadResult reports one policy-keyed read operation.
type ReadResult struct {
	OK       bool
	Denied   bool // an open breaker denied the attempt outright
	Degraded bool // gave up under policy (attempt limit, budget, breaker)
	Attempts int
	Retries  int
	Timeouts int     // attempts cancelled by the per-attempt deadline
	Elapsed  float64 // virtual time spent, attempts plus backoff
	Moved    float64 // bytes accounted to the device across all attempts
	Err      error   // last attempt error when !OK
}

// attemptRead issues exactly one policy-governed attempt: a cancellable
// read carrying the policy's bandwidth-bound deadline, or a plain
// fallible read when the policy has no timeout. This is the non-fault
// fast path of the control plane — no tracing, no formatting, no timer
// (the deadline rides the device's own), no allocation (the token is
// pooled); retries, classification and emission live in the cold wrapper.
//
//tango:hotpath
func (k *Key) attemptRead(p *sim.Proc, dev *device.Device, cg *blkio.Cgroup, bytes float64) (elapsed, moved float64, err error) {
	if k.pol.TimeoutMinBW <= 0 {
		elapsed, err = dev.TryRead(p, cg, bytes)
		if err == nil {
			moved = bytes
		}
		return elapsed, moved, err
	}
	r := k.c.getRace()
	elapsed, err = dev.TryReadCancel(p, cg, bytes, &r.toks[0], k.deadline(bytes))
	moved = r.toks[0].Moved()
	k.c.putRace(r)
	return elapsed, moved, err
}

// deadline is when an attempt moving bytes from now is declared stuck; the
// sim_digests pin this float: now + (delay), not any other association.
func (k *Key) deadline(bytes float64) float64 {
	return k.c.eng.Now() + (k.pol.TimeoutFloor + bytes/k.pol.TimeoutMinBW)
}

// Read runs one guarded read of bytes from dev under the key's policy:
// breaker admission, per-attempt deadline, classified outcomes, budgeted
// exponential backoff. Unbounded (MaxAttempts 0) keys never give up —
// when the retry budget runs dry they pace to the refill rate instead.
// Must be called from a simulated process.
func (k *Key) Read(p *sim.Proc, dev *device.Device, cg *blkio.Cgroup, bytes float64) ReadResult {
	var res ReadResult
	k.stats.Ops++
	c := k.c
	br := k.breaker(dev.Name(), true)
	delay := k.pol.Backoff
	if delay <= 0 {
		delay = 0.05
	}
	for {
		if br != nil && !br.allow(c.eng.Now()) {
			k.stats.BreakerDenied++
			res.Denied = true
			res.Degraded = true
			if res.Attempts == 0 {
				// Deny-on-entry is the breaker doing its job; one trace
				// line per op would flood the ring, so only entry denials
				// after at least one attempt are interesting enough to log.
				return res
			}
			c.emit(trace.KindBreaker, "deny key=%s target=%s: open mid-retry", k.pol.Name, dev.Name())
			return res
		}
		res.Attempts++
		k.stats.Attempts++
		el, moved, err := k.attemptRead(p, dev, cg, bytes)
		res.Elapsed += el
		res.Moved += moved
		cls := k.pol.Classify(err)
		if cls == ClassOK {
			if br != nil && br.onSuccess() {
				c.emit(trace.KindBreaker, "close key=%s target=%s", k.pol.Name, dev.Name())
			}
			res.OK = true
			res.Err = nil
			return res
		}
		res.Err = err
		timedOut := errors.Is(err, device.ErrCanceled)
		if timedOut {
			k.stats.Timeouts++
			res.Timeouts++
			k.stats.WastedBytes += moved
		}
		now := c.eng.Now()
		if br != nil && br.onFailure(now) {
			c.brOpens++
			c.emit(trace.KindBreaker, "open key=%s target=%s fails=%d cooldown=%.3gs",
				k.pol.Name, dev.Name(), br.fails, br.cooldown)
		}
		if cls == ClassTerminal {
			k.stats.Failures++
			c.emit(trace.KindAttempt, "fail key=%s target=%s attempt=%d: terminal: %s", k.pol.Name, dev.Name(), res.Attempts, err.Error())
			return res
		}
		if k.pol.MaxAttempts > 0 && res.Attempts >= k.pol.MaxAttempts {
			k.stats.Degraded++
			res.Degraded = true
			c.emit(trace.KindAttempt, "degrade key=%s target=%s attempts=%d: attempt limit reached", k.pol.Name, dev.Name(), res.Attempts)
			return res
		}
		paced := false
		if !k.takeToken(now) {
			if k.pol.MaxAttempts > 0 {
				k.stats.BudgetDenied++
				k.stats.Degraded++
				res.Degraded = true
				c.emit(trace.KindBudget, "deny key=%s target=%s: retry budget exhausted, degrading", k.pol.Name, dev.Name())
				return res
			}
			// Mandatory work: degrade to a trickle paced at the refill
			// rate rather than hammering the device or giving up.
			wait := k.tokenWait(now)
			k.stats.BudgetPaced++
			paced = true
			if wait > delay {
				delay = wait
			}
			c.emit(trace.KindBudget, "pace key=%s target=%s wait=%.3gs: budget dry", k.pol.Name, dev.Name(), delay)
		}
		k.stats.Retries++
		res.Retries++
		c.emit(trace.KindAttempt, "retry key=%s target=%s attempt=%d backoff=%.3gs timeout=%t",
			k.pol.Name, dev.Name(), res.Attempts+1, delay, timedOut)
		p.Sleep(delay)
		if paced {
			k.takeToken(c.eng.Now()) // best-effort: the pacing sleep covered the refill
		}
		res.Elapsed += delay
		delay *= k.pol.Factor
		if k.pol.MaxBackoff > 0 && delay > k.pol.MaxBackoff {
			delay = k.pol.MaxBackoff
		}
	}
}

// WeightResult reports one policy-keyed weight write.
type WeightResult struct {
	OK      bool
	Skipped bool // an open breaker suppressed the write; re-apply on a later tick
}

// Weight applies a cgroup weight through the key's policy: single
// attempt, breaker-gated per cgroup target. The caller's own control
// tick is the retry loop — the breaker's job is to stop a wedged cgroup
// file from being hammered every tick, and its half-open probe is the
// recovery detector. A nil key makes the one direct write, never
// skipped and never traced. Safe to call from any sim context (no
// sleeping).
func (k *Key) Weight(cg *blkio.Cgroup, w int) WeightResult {
	if k == nil {
		return WeightResult{OK: cg.TrySetWeight(w) == nil}
	}
	k.stats.Ops++
	c := k.c
	br := k.breaker(cg.Name(), false) // nil until the cgroup's first failed write
	now := c.eng.Now()
	if br != nil && !br.allow(now) {
		k.stats.BreakerDenied++
		return WeightResult{Skipped: true}
	}
	k.stats.Attempts++
	err := cg.TrySetWeight(w)
	if k.pol.Classify(err) == ClassOK {
		if br != nil && br.onSuccess() {
			c.rec.Emit(now, source, trace.KindRecover, "weight write recovered key=%s target=%s: re-applied w=%d",
				k.pol.Name, cg.Name(), w)
		}
		return WeightResult{OK: true}
	}
	k.stats.Failures++
	if br == nil {
		br = k.breaker(cg.Name(), true)
	}
	if br != nil && br.onFailure(now) {
		c.brOpens++
		c.rec.Emit(now, source, trace.KindBreaker, "open key=%s target=%s fails=%d cooldown=%.3gs: weight writes suppressed", k.pol.Name, cg.Name(), br.fails, br.cooldown)
	} else {
		c.rec.Emit(now, source, trace.KindAttempt, "fail key=%s target=%s w=%d: tolerated, re-apply next tick", k.pol.Name, cg.Name(), w)
	}
	return WeightResult{}
}

// HedgeResult reports one hedged-read decision.
type HedgeResult struct {
	OK        bool // a leg delivered the payload
	Hedged    bool // the race was actually launched (false = decision said no)
	FastWon   bool
	Elapsed   float64
	FastMoved float64 // bytes accounted on the fast device (winner payload or cancelled partial)
	SlowMoved float64 // bytes accounted on the slow device
}

// shouldHedge is the hedging decision rule (docs/resil.md): hedge only
// reads worth the race (>= hedgeMinBytes) and only when either (a) the DFT
// forecast predicts a contended window — next-window capacity-tier
// bandwidth below hedgeContentionFrac of the model peak, the same signal the
// prefetcher reads in the opposite direction to find quiet windows — or
// (b) the fast tier's breaker is already tripped, which is direct
// evidence the primary leg is suspect.
func (c *Controller) shouldHedge(fast *device.Device, bytes float64) bool {
	if !c.hedge.Enabled || bytes < hedgeMinBytes {
		return false
	}
	if b := c.breakers[fast.Name()]; b != nil && b.State(c.eng.Now()) != BreakerClosed {
		return true
	}
	if c.forecast == nil {
		return false
	}
	next, peak, ok := c.forecast()
	if !ok || peak <= 0 {
		return false
	}
	return next < hedgeContentionFrac*peak
}

// HedgedRead races a fast-tier copy of the payload against the capacity
// tier, cancelling the loser mid-flight. If the decision rule says the
// race is not worth it (or the budget has no token for the extra leg) it
// returns Hedged == false and the caller proceeds on its normal path; if
// both legs fail the caller likewise falls back (OK == false). The loser
// leg's partial bytes are real I/O and are accounted to its device and
// cgroup; the result reports them so callers can track waste.
func (k *Key) HedgedRead(p *sim.Proc, fast, slow *device.Device, cg *blkio.Cgroup, bytes float64) HedgeResult {
	var res HedgeResult
	c := k.c
	if !c.shouldHedge(fast, bytes) {
		return res
	}
	now := c.eng.Now()
	if !k.takeToken(now) {
		k.stats.BudgetDenied++
		c.emit(trace.KindBudget, "deny key=%s: no budget for hedge leg", k.pol.Name)
		return res
	}
	k.stats.Ops++
	k.stats.Hedges++
	k.stats.Attempts += 2
	res.Hedged = true
	c.emit(trace.KindHedge, "launch key=%s fast=%s slow=%s bytes=%.0f",
		k.pol.Name, fast.Name(), slow.Name(), bytes)

	// The legs are transfers, not processes: each device tells r.
	r := c.getRace()
	r.winner, r.pending, r.waiter = -1, 2, p
	deadline := k.deadline(bytes)
	fast.StartRead(cg, bytes, &r.toks[0], deadline, r)
	slow.StartRead(cg, bytes, &r.toks[1], deadline, r)
	for r.pending > 0 {
		p.Suspend()
	}
	res.Elapsed = c.eng.Now() - now
	res.FastMoved, res.SlowMoved = r.toks[0].Moved(), r.toks[1].Moved()
	res.OK, res.FastWon = r.winner >= 0, r.winner == 0
	c.putRace(r)
	if !res.OK {
		k.stats.Degraded++
		k.stats.WastedBytes += res.FastMoved + res.SlowMoved
		c.emit(trace.KindHedge, "lose key=%s: both legs failed, falling back", k.pol.Name)
		return res
	}
	winDev, wasted := slow, res.FastMoved
	if res.FastWon {
		k.stats.HedgeFastWins++
		winDev, wasted = fast, res.SlowMoved
	} else {
		k.stats.HedgeSlowWins++
	}
	k.stats.WastedBytes += wasted
	c.emit(trace.KindHedge, "win key=%s winner=%s wasted=%.0f elapsed=%.3gs",
		k.pol.Name, winDev.Name(), wasted, res.Elapsed)
	return res
}
