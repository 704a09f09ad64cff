// Package tokenctl is the decentralized alternative to the central
// per-node weight coordinator: every session owns a token bucket sized
// from the weight function's output, and a weight adjustment touches
// only that bucket (plus at most a constant number of lender peers) —
// O(1) per Request/Release where the coordinator's global rebalance is
// O(sessions).
//
// Tokens are weight·seconds. Holding a grant above the blkio floor for
// one burst window costs (grant−MinWeight)×burstSec tokens, paid at
// Request from the session's own bucket — incrementally within a
// window, so re-requests at any cadence spend at most one burst per
// burstSec; the bucket refills on the sim clock at cap/refillSec. A starved session borrows the
// shortfall from *idle* peers (AdapTBF-style): the lender's tokens move
// to the borrower immediately, the debt is recorded in a borrow ledger,
// and repayment is passive — the debtor's own refill inflow pays debts
// down before it accrues tokens, so repayment is paced to the refill
// rate and can never deadlock (idle-only lending means no borrow cycle
// can form among active sessions, and nobody ever blocks waiting for a
// repayment). Each lender's outstanding principal is hard-capped at
// lendFrac of its bucket, so a lender that turns active again still
// holds most of its capacity — and it can recall in-force points from
// its debtors on the spot (an O(1) weight rewrite per debtor) instead
// of sweeping the node.
//
// The controller is engine-serialized like the rest of the per-node
// stack: no locks, deterministic, and the hot path performs no
// allocation (ledger slices are bounded and preallocated).
package tokenctl

import (
	"fmt"
	"slices"
	"strings"

	"tango/internal/blkio"
	"tango/internal/resil"
	"tango/internal/trace"
)

// Mode selects how a node arbitrates session weights.
type Mode int

const (
	// ModeCentral is the existing coordinator.Allocator: global rescale
	// on every request.
	ModeCentral Mode = iota
	// ModeTokens is pure decentralized token-bucket control.
	ModeTokens
	// ModeHybrid runs token control between periodic coordinator-style
	// epochs: every EpochSec the controller settles all ledgers, forgives
	// outstanding debt, and re-applies the coordinator's rescaled grants
	// once, then hands control back to the buckets.
	ModeHybrid
)

// String returns the CLI spelling of the mode.
func (m Mode) String() string {
	switch m {
	case ModeCentral:
		return "central"
	case ModeTokens:
		return "tokens"
	case ModeHybrid:
		return "hybrid"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode parses the CLI spelling of a control mode, any case:
// central (coordinator rescale), tokens (decentralized buckets; "token"
// too), or hybrid (tokens with periodic coordinator-style resync).
func ParseMode(s string) (Mode, error) {
	switch s = strings.ToLower(strings.TrimSpace(s)); s {
	case "central":
		return ModeCentral, nil
	case "tokens", "token":
		return ModeTokens, nil
	case "hybrid":
		return ModeHybrid, nil
	}
	return ModeCentral, fmt.Errorf("tokenctl: unknown control mode %q (want central|tokens|hybrid)", s)
}

// Bucket and ledger geometry (the package comment has the economics).
const (
	// burstSec is the burst window one Request pays for up front (one
	// controller step); refillSec is the time from empty to cap. Equal,
	// so a session holding exactly its desired weight breaks even and
	// idle time accrues lendable surplus.
	burstSec  = 60.0
	refillSec = 60.0
	// boostFactor bounds the grant a bucket may fund at
	// clamp(desired×boostFactor): borrowing at most doubles a weight and
	// cannot erase the priority differentiation the weight function
	// encodes.
	boostFactor = 2.0
	// lendFrac caps each lender's outstanding principal at lendFrac×cap.
	lendFrac   = 0.5
	maxLenders = 4 // peers funding one Request
	maxDebtors = 8 // concurrent debtors one lender carries
	maxScan    = 8 // rotating lender scan per Request; keeps Request O(1) in sessions
)

// Options tunes the controller; the zero value is pure token mode.
type Options struct {
	// EpochSec > 0 enables hybrid mode: every EpochSec the controller
	// runs one coordinator-style global rescale and forgives the ledger.
	// 0 (default) is pure token mode.
	EpochSec float64
}

// loan is one borrow-ledger entry held by the debtor. pts is the
// borrowed weight in force for the current burst (zeroed when the burst
// ends or the lender recalls); owed is the outstanding principal in
// tokens, repaid from the debtor's refill inflow.
type loan struct {
	lender *Bucket
	pts    int
	owed   float64
}

// maxLoans bounds a debtor's ledger. Fresh borrows merge into an
// existing entry for the same lender; distinct lenders beyond the cap
// are skipped for that Request.
const maxLoans = 8

// Bucket is one session's token bucket and ledger. It is a handle: the
// hot path never looks sessions up by name.
type Bucket struct {
	name    string
	cg      *blkio.Cgroup
	desired int  // last clamped desired weight
	active  bool // between Request and Release
	pending bool // last weight write failed; re-assert on next Request
	grant   int  // weight currently written while active

	cap    float64 // wantPts(desired) × burstSec
	rate   float64 // cap / refillSec
	tokens float64 // current fill, always in [0, cap]
	last   float64 // sim time of the last settle

	burstStart float64 // start of the burst window the session has paid into
	paidPts    int     // weight points funded for the current window

	lentOut float64   // outstanding principal across all debtors
	loans   []loan    // debts this bucket owes (len ≤ maxLoans, preallocated)
	debtors []*Bucket // buckets owing this one (len ≤ maxDebtors, preallocated)
}

// Stats counts ledger traffic for experiment reporting.
type Stats struct {
	Borrows int // loans opened or topped up
	Repays  int // loans fully cleared (refill-paced or epoch-forgiven)
	Recalls int // in-force points recalled by an underfunded lender
	Writes  int // weight writes issued (grants, reverts, recalls)
}

// Controller owns the buckets of one node. It must only be used from
// that node's engine context (engine-serialized, like blkio and the
// device layer): it holds no locks.
type Controller struct {
	opts Options
	now  func() float64
	rec  *trace.Recorder
	rc   *resil.Controller

	buckets []*Bucket
	byName  map[string]*Bucket
	cursor  int // rotating lender-scan position
	active  int // buckets between Request and Release

	nextEpoch float64
	stats     Stats
}

// New returns a controller reading the sim clock through now (nil is
// taken as a constant 0, useful in tests that drive time explicitly
// through a variable).
func New(now func() float64, opts Options) *Controller {
	c := &Controller{
		opts:   opts,
		now:    now,
		byName: map[string]*Bucket{},
	}
	if c.now == nil {
		c.now = func() float64 { return 0 }
	}
	if c.opts.EpochSec > 0 {
		c.nextEpoch = c.opts.EpochSec
	}
	return c
}

// SetTrace routes borrow/repay ledger events to rec. May be nil.
func (c *Controller) SetTrace(rec *trace.Recorder) { c.rec = rec }

// SetResil routes weight writes through the tokens.weight.apply policy
// (breaker-gated per cgroup); without it they are direct writes.
func (c *Controller) SetResil(rc *resil.Controller) { c.rc = rc }

// Stats returns the ledger-traffic counters.
func (c *Controller) Stats() Stats { return c.stats }

// Attach registers a session's cgroup and returns its bucket handle.
// The bucket starts full at the default-weight size; the first Request
// resizes it to the weight function's output.
func (c *Controller) Attach(name string, cg *blkio.Cgroup) (*Bucket, error) {
	if _, ok := c.byName[name]; ok {
		return nil, fmt.Errorf("tokenctl: session %q already attached", name)
	}
	b := &Bucket{
		name:    name,
		cg:      cg,
		desired: blkio.DefaultWeight,
		last:    c.now(),
		loans:   make([]loan, 0, maxLoans),
		debtors: make([]*Bucket, 0, maxDebtors),
	}
	b.cap = float64(c.wantPts(b.desired)) * burstSec
	b.rate = b.cap / refillSec
	b.tokens = b.cap
	c.buckets = append(c.buckets, b)
	c.byName[name] = b
	return b, nil
}

// Lookup returns the bucket attached under name, or nil.
func (c *Controller) Lookup(name string) *Bucket { return c.byName[name] }

// Detach releases the session (reverting its weight) and removes its
// bucket. Its outstanding debts are settled as far as the ledger allows
// and the remainder forgiven; principal it has on loan is written off.
func (c *Controller) Detach(b *Bucket) {
	if b == nil || c.byName[b.name] != b {
		return
	}
	c.Release(b)
	// Forgive what it still owes and write off what it lent.
	for i := range b.loans {
		l := &b.loans[i]
		l.lender.lentOut = max(l.lender.lentOut-l.owed, 0)
		l.owed, l.pts = 0, 0
		l.lender.removeDebtor(b)
	}
	b.loans = b.loans[:0]
	for len(b.debtors) > 0 {
		d := b.debtors[0]
		for i := range d.loans {
			if d.loans[i].lender == b {
				d.loans[i].owed = 0
				d.loans[i].pts = 0
			}
		}
		d.compactLoans() // drops the dead entry and removes d from b.debtors
		if len(b.debtors) > 0 && b.debtors[0] == d {
			b.debtors = b.debtors[1:] // defensive: never loop on a stale entry
		}
	}
	b.lentOut = 0
	if i := slices.Index(c.buckets, b); i >= 0 {
		c.buckets = slices.Delete(c.buckets, i, i+1)
	}
	if c.cursor >= len(c.buckets) {
		c.cursor = 0
	}
	delete(c.byName, b.name)
}

// Request declares that the session wants the given desired weight for
// its current retrieval and returns the granted weight. It settles the
// bucket, pays for the burst window from its own tokens, borrows any
// shortfall from idle peers, and — if the bucket is itself a starved
// lender — recalls in-force points from its debtors. Payment is
// window-incremental: a re-request inside the same burstSec window
// (the controller adjusts the weight once per bucket within a step)
// only pays for points beyond what the window has already funded, so
// the sustainable spend rate is one burst per window regardless of the
// request cadence. O(1) in the session count.
func (c *Controller) Request(b *Bucket, desired int) int {
	now := c.now()
	if c.nextEpoch > 0 && now >= c.nextEpoch {
		c.resync(now)
	}
	c.settle(b, now)
	d := blkio.ClampWeight(desired)
	if d != b.desired {
		c.resize(b, d)
	}
	if !b.active {
		c.active++
	}
	if !b.active || now-b.burstStart >= burstSec {
		// A fresh window: the previous burst's borrowed points fall out
		// of force and the window is re-funded from scratch.
		c.endBoost(b)
		b.burstStart = now
		b.paidPts = 0
	}

	want := c.wantPts(d)
	chargeable := want - b.paidPts
	if chargeable > 0 {
		own := min(int(b.tokens/burstSec), chargeable)
		b.tokens -= float64(float64(own) * burstSec)
		short := chargeable - own
		if short > 0 {
			short = c.borrow(b, short, now)
		}
		if short > 0 && b.lentOut > 0 {
			short = c.recall(b, short)
		}
		b.paidPts += chargeable - short
	}
	b.active = true
	b.grant = blkio.MinWeight + min(b.paidPts, want) // desired dropped mid-window: no refunds
	c.write(b, b.grant)
	return b.grant
}

// Release marks the session's retrieval finished: the burst ends (any
// borrowed points fall out of force, though unpaid principal stays on
// the ledger) and the weight reverts to the default.
func (c *Controller) Release(b *Bucket) {
	c.settle(b, c.now())
	c.endBoost(b)
	if b.active {
		c.active--
	}
	b.active = false
	b.grant = blkio.DefaultWeight
	c.write(b, blkio.DefaultWeight)
}

// settle advances the bucket to now: refill inflow pays outstanding
// debts first (principal flows back to the lenders — repayment paced to
// the refill rate), and the remainder accrues as tokens up to the cap.
//
//tango:hotpath
func (c *Controller) settle(b *Bucket, now float64) {
	dt := now - b.last
	b.last = now
	if dt <= 0 {
		return
	}
	inflow := dt * b.rate
	for i := range b.loans {
		if inflow <= 0 {
			break
		}
		l := &b.loans[i]
		if l.owed <= 0 {
			continue
		}
		pay := min(inflow, l.owed)
		l.owed -= pay
		inflow -= pay
		l.lender.lentOut = max(l.lender.lentOut-pay, 0)
		l.lender.tokens = min(l.lender.tokens+pay, l.lender.cap)
		if l.owed <= 0 && l.pts == 0 {
			c.stats.Repays++
			c.rec.Emit(now, b.name, trace.KindRepay, "debt to %s cleared", l.lender.name)
		}
	}
	b.compactLoans()
	b.tokens = min(b.tokens+inflow, b.cap)
}

// wantPts is the weight headroom one burst buys: the distance from the
// free blkio floor to the boost target clamp(desired×boostFactor). The
// bucket is sized to fund exactly this — cap = wantPts×burstSec — so a
// session holding its target breaks even against the refill and idle
// time accrues lendable surplus.
func (c *Controller) wantPts(desired int) int {
	t := blkio.ClampWeight(int(float64(desired) * boostFactor))
	return t - blkio.MinWeight
}

// resize re-sizes the bucket for a new desired weight, preserving the
// fill fraction so a change of desire neither mints nor burns tokens
// beyond the proportional adjustment. If the shrunken cap leaves more
// principal on loan than the lender cap now allows, the excess is
// written off (the debtors' owed drops with it, keeping the ledger
// invariant Σowed == Σ lentOut).
func (c *Controller) resize(b *Bucket, desired int) {
	frac := 1.0
	if b.cap > 0 {
		frac = b.tokens / b.cap
	}
	b.desired = desired
	b.cap = float64(c.wantPts(desired)) * burstSec
	b.rate = b.cap / refillSec
	b.tokens = frac * b.cap
	if excess := b.lentOut - float64(lendFrac*b.cap); excess > 0 {
		c.writeOff(b, excess)
	}
}

// writeOff forgives up to excess of b's outstanding principal,
// oldest debtor first.
func (c *Controller) writeOff(b *Bucket, excess float64) {
	for di := 0; di < len(b.debtors) && excess > 0; di++ {
		d := b.debtors[di]
		for i := range d.loans {
			l := &d.loans[i]
			if l.lender != b || l.owed <= 0 {
				continue
			}
			forgive := min(excess, l.owed)
			l.owed -= forgive
			b.lentOut -= forgive
			excess -= forgive
			if l.owed <= 0 && l.pts == 0 {
				c.stats.Repays++
			}
			if excess <= 0 {
				break
			}
		}
	}
	b.lentOut = max(b.lentOut, 0)
}

// endBoost takes the previous burst's borrowed points out of force.
// Fully repaid loans drop off the ledger; unpaid principal persists.
func (c *Controller) endBoost(b *Bucket) {
	for i := range b.loans {
		b.loans[i].pts = 0
	}
	b.compactLoans()
}

// borrow funds up to short weight points from idle peers, scanning at
// most maxScan buckets from a rotating cursor and taking from at most
// maxLenders of them. The lender's tokens move now; the debt is
// recorded on b's ledger. Returns the unfunded remainder.
//
//tango:hotpath
func (c *Controller) borrow(b *Bucket, short int, now float64) int {
	n := len(c.buckets)
	if n <= 1 {
		return short
	}
	scan := min(maxScan, n)
	lenders := 0
	for i := 0; i < scan && short > 0 && lenders < maxLenders; i++ {
		if c.cursor >= n {
			c.cursor = 0
		}
		l := c.buckets[c.cursor]
		c.cursor++
		if l == b || l.active {
			continue
		}
		c.settle(l, now)
		avail := min(float64(lendFrac*l.cap)-l.lentOut, l.tokens)
		pts := min(int(avail/burstSec), short)
		if pts <= 0 {
			continue
		}
		if !b.recordLoan(l, pts, float64(pts)*burstSec) {
			continue
		}
		principal := float64(float64(pts) * burstSec)
		l.tokens -= principal
		l.lentOut += principal
		short -= pts
		lenders++
		c.stats.Borrows++
		c.rec.Emit(now, b.name, trace.KindBorrow, "borrowed %d pts from %s", pts, l.name)
	}
	return short
}

// recordLoan merges pts/principal into b's ledger entry for lender l
// (creating one if the ledger and l's debtor list have room). It
// reports whether the loan was recorded; the caller only moves tokens
// on success.
func (b *Bucket) recordLoan(l *Bucket, pts int, principal float64) bool {
	for i := range b.loans {
		if b.loans[i].lender == l {
			b.loans[i].pts += pts
			b.loans[i].owed += principal
			return true
		}
	}
	if len(b.loans) == maxLoans {
		return false
	}
	if !slices.Contains(l.debtors, b) {
		if len(l.debtors) == maxDebtors {
			return false
		}
		l.debtors = append(l.debtors, b)
	}
	b.loans = append(b.loans, loan{lender: l, pts: pts, owed: principal})
	return true
}

// recall lets a starved lender reclaim up to short of its in-force
// lent points: each recalled point comes straight off the debtor's
// written weight (one O(1) rewrite per debtor) and the matching
// principal is forgiven, so the ledger invariant Σowed == Σ lentOut
// holds. Returns the remainder it could not reclaim.
func (c *Controller) recall(b *Bucket, short int) int {
	for di := 0; di < len(b.debtors) && short > 0; di++ {
		d := b.debtors[di]
		for i := range d.loans {
			l := &d.loans[i]
			if l.lender != b || l.pts <= 0 {
				continue
			}
			r := min(short, l.pts, int(l.owed/burstSec))
			if r <= 0 {
				continue
			}
			principal := float64(float64(r) * burstSec)
			l.pts -= r
			l.owed -= principal
			b.lentOut = max(b.lentOut-principal, 0)
			b.tokens = min(b.tokens+principal, b.cap) // reclaimed capacity funds this burst
			short -= r
			c.stats.Recalls++
			if d.active {
				d.grant = max(d.grant-r, blkio.MinWeight)
				c.write(d, d.grant)
			}
			c.rec.Emit(c.now(), b.name, trace.KindBorrow, "recalled %d pts from %s", r, d.name)
		}
	}
	// The reclaimed principal is back in b.tokens; spend it.
	own := min(int(b.tokens/burstSec), short)
	b.tokens -= float64(float64(own) * burstSec)
	return short - own
}

// resync is the hybrid epoch: settle every bucket, forgive the ledger,
// refill to full, and re-apply one coordinator-style rescale (largest
// active desired maps to MaxWeight, ratios preserved). O(sessions),
// once per EpochSec.
func (c *Controller) resync(now float64) {
	for c.nextEpoch <= now {
		c.nextEpoch += c.opts.EpochSec
	}
	maxDesired := 0
	for _, b := range c.buckets {
		c.settle(b, now)
		if b.active && b.desired > maxDesired {
			maxDesired = b.desired
		}
	}
	forgiven := 0
	for _, b := range c.buckets {
		for i := range b.loans {
			if b.loans[i].owed > 0 {
				forgiven++
			}
		}
		b.loans = b.loans[:0]
		b.debtors = b.debtors[:0]
		b.lentOut = 0
		b.tokens = b.cap
		// The epoch rewrites grants out from under the burst windows;
		// force the next Request to fund a fresh window from the refilled
		// bucket.
		b.paidPts = 0
		b.burstStart = now - burstSec
	}
	c.stats.Repays += forgiven
	if forgiven > 0 {
		c.rec.Emit(now, "tokenctl", trace.KindRepay, "epoch resync forgave %d debts", forgiven)
	}
	if maxDesired == 0 {
		return
	}
	for _, b := range c.buckets {
		if !b.active {
			continue
		}
		g := blkio.ClampWeight(b.desired * blkio.MaxWeight / maxDesired)
		if g != b.grant || b.pending {
			b.grant = g
			c.write(b, g)
		}
	}
}

// write issues one weight write through the tokens.weight.apply key
// (breaker-gated and self-tracing with a controller, direct without).
// Failures mark the bucket pending; the next Request re-asserts the grant.
func (c *Controller) write(b *Bucket, w int) {
	c.stats.Writes++
	b.pending = !c.rc.Key(resil.KeyTokenWeightApply).Weight(b.cg, w).OK
}

// compactLoans drops ledger entries that are fully repaid and out of
// force, keeping order (in-place, no allocation). A debtor holds at
// most one entry per lender, so dropping the entry also ends the
// debtor relationship.
func (b *Bucket) compactLoans() {
	out := b.loans[:0]
	for i := range b.loans {
		if b.loans[i].owed > 0 || b.loans[i].pts > 0 {
			out = append(out, b.loans[i])
		} else {
			b.loans[i].lender.removeDebtor(b)
		}
	}
	b.loans = out
}

// removeDebtor removes d from b's debtor list.
func (b *Bucket) removeDebtor(d *Bucket) {
	if i := slices.Index(b.debtors, d); i >= 0 {
		b.debtors = slices.Delete(b.debtors, i, i+1)
	}
}
