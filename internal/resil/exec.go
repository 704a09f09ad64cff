package resil

import (
	"errors"

	"tango/internal/blkio"
	"tango/internal/device"
	"tango/internal/sim"
	"tango/internal/trace"
)

// getTok takes a pooled token for a blocking attempt: a device holds the
// token until the transfer ends, so it cannot be a local.
//
//tango:hotpath
func (c *Controller) getTok() *device.Token {
	if n := len(c.tokFree); n > 0 {
		t := c.tokFree[n-1]
		c.tokFree[n-1] = nil
		c.tokFree = c.tokFree[:n-1]
		return t
	}
	return new(device.Token)
}

//tango:hotpath
func (c *Controller) putTok(t *device.Token) {
	*t = device.Token{}
	c.tokFree = append(c.tokFree, t)
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
// read carrying the policy's bandwidth-bound deadline (none without a
// timeout). This is the non-fault fast path of the blocking Key.Read — no
// tracing, no formatting, no timer (the deadline rides the device's own),
// no allocation (the token is pooled); retries, classification and
// emission live in settle.
//
//tango:hotpath
func (k *Key) attemptRead(p *sim.Proc, dev *device.Device, cg *blkio.Cgroup, bytes float64) (elapsed, moved float64, err error) {
	tok := k.c.getTok()
	elapsed, err = dev.TryReadCancel(p, cg, bytes, tok, k.deadline(bytes))
	moved = tok.Moved()
	k.c.putTok(tok)
	return elapsed, moved, err
}

// deadline is when an attempt moving bytes from now is declared stuck, 0
// (never) for a policy with no timeout; the sim_digests pin this float:
// now + (delay), not any other association.
func (k *Key) deadline(bytes float64) float64 {
	if k.pol.TimeoutMinBW <= 0 {
		return 0
	}
	return k.c.eng.Now() + (k.pol.TimeoutFloor + bytes/k.pol.TimeoutMinBW)
}

// readRun is one read operation's policy state — breaker admission,
// classified outcomes, budgeted exponential backoff — shared by its two
// drivers: Read, which blocks a process, and ReadOp, made of engine
// callbacks. Both call it at the same instants, so the two leave the same
// counters, budgets, breakers and trace.
type readRun struct {
	Res          ReadResult
	k            *Key
	dev          *device.Device
	br           *Breaker
	bytes, begun float64 // the request, and when the operation began
	delay        float64 // the backoff before the next retry
	paced        bool    // it was stretched to the budget's refill
}

// open counts one read operation of k on dev.
func (r *readRun) open(k *Key, dev *device.Device, bytes float64) {
	k.stats.Ops++
	// Field by field: a composite literal would be built aside and copied.
	r.Res, r.paced = ReadResult{}, false
	r.k, r.dev, r.br, r.bytes, r.begun, r.delay = k, dev, k.breaker(dev.Name(), true), bytes, k.c.eng.Now(), k.pol.Backoff
	if r.delay <= 0 {
		r.delay = 0.05
	}
}

// admit counts an attempt the breaker lets through; when an open breaker
// denies it instead, the operation ends.
func (r *readRun) admit() bool {
	k, c := r.k, r.k.c
	if r.br != nil && !r.br.allow(c.eng.Now()) {
		k.stats.BreakerDenied++
		r.Res.Denied = true
		r.Res.Degraded = true
		if r.Res.Attempts > 0 {
			// Deny-on-entry is the breaker doing its job; one trace
			// line per op would flood the ring, so only entry denials
			// after at least one attempt are interesting enough to log.
			c.rec.Emit(c.eng.Now(), source, trace.KindBreaker, "deny key=%s target=%s: open mid-retry", k.pol.Name, r.dev.Name())
		}
		return false
	}
	r.Res.Attempts++
	k.stats.Attempts++
	return true
}

// settle takes an attempt that took el and moved bytes and reports whether
// the operation retries, after a backoff of r.delay. Under a ChargeRequest
// policy the operation so far is the request over its span.
func (r *readRun) settle(el, moved float64, err error) bool {
	k, c, res, dev := r.k, r.k.c, &r.Res, r.dev.Name()
	if k.pol.ChargeRequest {
		res.Moved, res.Elapsed = r.bytes, c.eng.Now()-r.begun
	} else {
		res.Elapsed += el
		res.Moved += moved
	}
	cls := k.pol.Classify(err)
	if cls == ClassOK {
		if r.br != nil && r.br.onSuccess() {
			c.rec.Emit(c.eng.Now(), source, trace.KindBreaker, "close key=%s target=%s", k.pol.Name, dev)
		}
		res.OK = true
		res.Err = nil
		return false
	}
	res.Err = err
	timedOut := errors.Is(err, device.ErrCanceled)
	if timedOut {
		k.stats.Timeouts++
		res.Timeouts++
		k.stats.WastedBytes += moved
	}
	now := c.eng.Now()
	if r.br != nil && r.br.onFailure(now) {
		c.brOpens++
		c.rec.Emit(now, source, trace.KindBreaker, "open key=%s target=%s fails=%d cooldown=%.3gs",
			k.pol.Name, dev, r.br.fails, r.br.cooldown)
	}
	if cls == ClassTerminal {
		k.stats.Failures++
		c.rec.Emit(now, source, trace.KindAttempt, "fail key=%s target=%s attempt=%d: terminal: %s", k.pol.Name, dev, res.Attempts, err.Error())
		return false
	}
	if k.pol.MaxAttempts > 0 && res.Attempts >= k.pol.MaxAttempts {
		k.stats.Degraded++
		res.Degraded = true
		c.rec.Emit(now, source, trace.KindAttempt, "degrade key=%s target=%s attempts=%d: attempt limit reached", k.pol.Name, dev, res.Attempts)
		return false
	}
	r.paced = false
	if !k.takeToken(now) {
		if k.pol.MaxAttempts > 0 {
			k.stats.BudgetDenied++
			k.stats.Degraded++
			res.Degraded = true
			c.rec.Emit(now, source, trace.KindBudget, "deny key=%s target=%s: retry budget exhausted, degrading", k.pol.Name, dev)
			return false
		}
		// Mandatory work: degrade to a trickle paced at the refill
		// rate rather than hammering the device or giving up.
		k.stats.BudgetPaced++
		r.paced = true
		r.delay = max(r.delay, k.tokenWait(now))
		c.rec.Emit(now, source, trace.KindBudget, "pace key=%s target=%s wait=%.3gs: budget dry", k.pol.Name, dev, r.delay)
	}
	k.stats.Retries++
	res.Retries++
	c.rec.Emit(now, source, trace.KindAttempt, "retry key=%s target=%s attempt=%d backoff=%.3gs timeout=%t",
		k.pol.Name, dev, res.Attempts+1, r.delay, timedOut)
	return true
}

// backoff ends a retry's wait and grows the next one.
func (r *readRun) backoff() {
	k := r.k
	if r.paced {
		k.takeToken(k.c.eng.Now()) // best-effort: the pacing sleep covered the refill
	}
	r.Res.Elapsed += r.delay
	r.delay *= k.pol.Factor
	if k.pol.MaxBackoff > 0 && r.delay > k.pol.MaxBackoff {
		r.delay = k.pol.MaxBackoff
	}
}

// Read runs one guarded read of bytes from dev under the key's policy:
// breaker admission, per-attempt deadline, classified outcomes, budgeted
// exponential backoff. Unbounded (MaxAttempts 0) keys never give up —
// when the retry budget runs dry they pace to the refill rate instead.
// Must be called from a simulated process; ReadOp is the same read made
// of engine callbacks.
func (k *Key) Read(p *sim.Proc, dev *device.Device, cg *blkio.Cgroup, bytes float64) ReadResult {
	var r readRun
	r.open(k, dev, bytes)
	for r.admit() {
		if !r.settle(k.attemptRead(p, dev, cg, bytes)) {
			break
		}
		p.Sleep(r.delay)
		r.backoff()
	}
	return r.Res
}

// ReadOp is Key.Read made of engine callbacks, for a caller that embeds
// it where a blocked process would stand: each attempt is a transfer that
// reports to the op, each backoff its own timer. Start returns false when
// the read ended inside the call (an open breaker, an attempt that ended
// at issue), as Read returns at once there; otherwise done is told, as of
// a transfer, in the event Read returned in. Either way the outcome is Res.
// A nil key's read is one plain read: infallible, undeadlined, uncounted.
type ReadOp struct {
	readRun
	cg    *blkio.Cgroup
	start float64 // when the attempt in flight began
	tok   device.Token
	done  device.Completion
}

// Start begins a read of bytes from dev under k's policy and reports
// whether it is in flight.
func (o *ReadOp) Start(k *Key, dev *device.Device, cg *blkio.Cgroup, bytes float64, done device.Completion) bool {
	o.cg, o.done = cg, done
	if k == nil {
		o.k, o.dev, o.bytes, o.begun = nil, dev, bytes, dev.Engine().Now()
		ended, _ := dev.Begin(cg, bytes, false, false, &o.tok, 0, o)
		return !ended || o.ended(nil)
	}
	o.open(k, dev, bytes)
	return o.attempt()
}

// attempt issues the next attempt if the breaker admits it, and reports
// whether the read is in flight.
func (o *ReadOp) attempt() bool {
	if !o.admit() {
		return false
	}
	o.start = o.k.c.eng.Now()
	ended, err := o.dev.Begin(o.cg, o.bytes, false, true, &o.tok, o.k.deadline(o.bytes), o)
	return !ended || o.ended(err)
}

// ended takes the attempt that ended and reports whether the read goes on,
// its backoff armed.
func (o *ReadOp) ended(err error) bool {
	eng := o.dev.Engine()
	if o.k == nil {
		o.Res = ReadResult{OK: true, Attempts: 1, Elapsed: eng.Now() - o.begun, Moved: o.bytes}
		return false
	}
	retry := o.settle(eng.Now()-o.start, o.tok.Moved(), err)
	if retry {
		eng.AtCall(eng.Now()+o.delay, o)
	}
	return retry
}

// TransferDone is the attempt in flight ending.
func (o *ReadOp) TransferDone(_ *device.Token, err error) {
	if !o.ended(err) {
		o.done.TransferDone(&o.tok, o.Res.Err)
	}
}

// Fire is the backoff ending: the next attempt.
func (o *ReadOp) Fire() {
	o.backoff()
	if !o.attempt() {
		o.done.TransferDone(&o.tok, o.Res.Err)
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

// Hedge is a hedged read run by engine callbacks, embedded by its caller:
// it races a fast-tier copy of the payload against the capacity tier,
// cancelling the loser mid-flight. If the decision rule says the race is
// not worth it (or the budget has no token for the extra leg) Start
// returns false and the caller proceeds on its normal path. Otherwise the
// legs are transfers that report to the Hedge, and the last one to end
// is told to done (inside Start when both end at issue), which picks the
// outcome up with Result once it carries on. If both legs
// fail the caller likewise falls back (OK == false). The loser leg's
// partial bytes are real I/O and are accounted to its device and cgroup;
// the result reports them so callers can track waste.
type Hedge struct {
	toks       [2]device.Token // fast leg, slow leg
	winner     int             // index of the first leg to deliver; -1 while none has
	pending    int             // legs still in flight
	k          *Key
	fast, slow *device.Device
	start      float64
	done       device.Completion
}

// Start makes the hedging decision for a read of bytes and, when it says
// yes, launches both legs and reports true.
func (h *Hedge) Start(k *Key, fast, slow *device.Device, cg *blkio.Cgroup, bytes float64, done device.Completion) bool {
	c := k.c
	if !c.shouldHedge(fast, bytes) {
		return false
	}
	now := c.eng.Now()
	if !k.takeToken(now) {
		k.stats.BudgetDenied++
		c.rec.Emit(now, source, trace.KindBudget, "deny key=%s: no budget for hedge leg", k.pol.Name)
		return false
	}
	k.stats.Ops++
	k.stats.Hedges++
	k.stats.Attempts += 2
	c.rec.Emit(now, source, trace.KindHedge, "launch key=%s fast=%s slow=%s bytes=%.0f",
		k.pol.Name, fast.Name(), slow.Name(), bytes)
	h.winner, h.pending = -1, 2
	h.k, h.fast, h.slow, h.start, h.done = k, fast, slow, now, done
	// Both legs are begun before an end at issue is reported, in leg
	// order: a leg that wins cancels the other, which must be begun.
	deadline := k.deadline(bytes)
	fastEnded, fastErr := fast.Begin(cg, bytes, false, true, &h.toks[0], deadline, h)
	slowEnded, slowErr := slow.Begin(cg, bytes, false, true, &h.toks[1], deadline, h)
	if fastEnded {
		h.TransferDone(&h.toks[0], fastErr)
	}
	if slowEnded {
		h.TransferDone(&h.toks[1], slowErr)
	}
	return true
}

// TransferDone is a device reporting that a leg ended, finished and
// accounted: the first to deliver wins and cancels the other, the last
// to end tells done.
func (h *Hedge) TransferDone(tok *device.Token, err error) {
	if err == nil && h.winner < 0 {
		h.winner = 0
		if tok == &h.toks[1] {
			h.winner = 1
		}
		h.toks[1-h.winner].Cancel()
	}
	if h.pending--; h.pending == 0 {
		h.done.TransferDone(tok, err)
	}
}

// Result counts and traces the race's outcome and returns it; call it
// once, when done's caller carries on.
func (h *Hedge) Result() HedgeResult {
	k := h.k
	c := k.c
	now := c.eng.Now()
	res := HedgeResult{Hedged: true, Elapsed: now - h.start, FastMoved: h.toks[0].Moved(), SlowMoved: h.toks[1].Moved()}
	res.OK, res.FastWon = h.winner >= 0, h.winner == 0
	if !res.OK {
		k.stats.Degraded++
		k.stats.WastedBytes += res.FastMoved + res.SlowMoved
		c.rec.Emit(now, source, trace.KindHedge, "lose key=%s: both legs failed, falling back", k.pol.Name)
		return res
	}
	winDev, wasted := h.slow, res.FastMoved
	if res.FastWon {
		k.stats.HedgeFastWins++
		winDev, wasted = h.fast, res.SlowMoved
	} else {
		k.stats.HedgeSlowWins++
	}
	k.stats.WastedBytes += wasted
	c.rec.Emit(now, source, trace.KindHedge, "win key=%s winner=%s wasted=%.0f elapsed=%.3gs",
		k.pol.Name, winDev.Name(), wasted, res.Elapsed)
	return res
}
