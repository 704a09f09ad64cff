package tokenctl

import (
	"math/rand"
	"testing"

	"tango/internal/blkio"
	"tango/internal/trace"
)

// clock is a manual sim clock for driving settles explicitly.
type clock struct{ t float64 }

func (c *clock) now() float64       { return c.t }
func (c *clock) advance(dt float64) { c.t += dt }

func newTestCtl(t *testing.T, opts Options, names ...string) (*Controller, *clock, map[string]*Bucket) {
	t.Helper()
	ck := &clock{}
	c := New(ck.now, opts)
	bs := map[string]*Bucket{}
	for _, n := range names {
		b, err := c.Attach(n, blkio.NewCgroup(n))
		if err != nil {
			t.Fatalf("attach %s: %v", n, err)
		}
		bs[n] = b
	}
	return c, ck, bs
}

func TestModeRoundTrip(t *testing.T) {
	for _, m := range []Mode{ModeCentral, ModeTokens, ModeHybrid} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode(bogus) did not fail")
	}
}

// TestParseModeSpellings: the CLI spellings ParseMode accepts beyond
// Mode.String — any case, surrounding spaces, and the singular "token".
func TestParseModeSpellings(t *testing.T) {
	cases := map[string]Mode{
		"central": ModeCentral, "Central": ModeCentral,
		"tokens": ModeTokens, "token": ModeTokens,
		"hybrid": ModeHybrid, " HYBRID ": ModeHybrid,
	}
	for in, want := range cases {
		if got, err := ParseMode(in); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("bogus control mode accepted")
	}
}

// TestSoloSessionSustainsTarget: a lone session holding its desired
// weight is self-funding — the bucket refills as fast as the burst
// drains, so the boosted grant persists across steps.
func TestSoloSessionSustainsTarget(t *testing.T) {
	c, ck, bs := newTestCtl(t, Options{}, "a")
	b := bs["a"]
	for i := 0; i < 50; i++ {
		if g := c.Request(b, 400); g != 800 {
			t.Fatalf("step %d: grant = %d, want 800 (BoostFactor=2 self-funded)", i, g)
		}
		if b.cg.Weight() != 800 {
			t.Fatalf("step %d: cgroup weight = %d", i, b.cg.Weight())
		}
		ck.advance(60)
	}
	c.Release(b)
	if b.cg.Weight() != blkio.DefaultWeight {
		t.Fatalf("released weight = %d, want default", b.cg.Weight())
	}
	if c.Active() != 0 {
		t.Fatalf("active = %d after release", c.Active())
	}
}

// TestBorrowBoostsStarvedSession: escalating the desire mid-window
// outstrips the already-drained bucket; the shortfall is funded by an
// idle peer and the debt lands on the ledger.
func TestBorrowBoostsStarvedSession(t *testing.T) {
	c, _, bs := newTestCtl(t, Options{}, "starved", "idle")
	b, l := bs["starved"], bs["idle"]
	g1 := c.Request(b, 300) // self-funded: 600, bucket drained
	if g1 != 600 {
		t.Fatalf("first grant = %d, want 600", g1)
	}
	g2 := c.Request(b, 1000) // escalation in the same window: must borrow
	if g2 <= g1 {
		t.Fatalf("escalated grant = %d: borrowing from the idle peer should fund a boost past %d", g2, g1)
	}
	if b.Owed() == 0 {
		t.Fatal("no debt recorded after borrowing")
	}
	if l.LentOut() == 0 {
		t.Fatal("lender shows no outstanding principal")
	}
	if s := c.Stats(); s.Borrows == 0 {
		t.Fatalf("stats = %+v: expected borrows", s)
	}
}

// TestLenderCapRespected: outstanding principal per lender never
// exceeds lendFrac of its cap, however hard the debtors pull.
func TestLenderCapRespected(t *testing.T) {
	c, ck, bs := newTestCtl(t, Options{}, "a", "b", "lender")
	l := bs["lender"]
	for i := 0; i < 10; i++ {
		c.Request(bs["a"], 300)
		c.Request(bs["a"], 1000) // escalation: drained, pulls on the lender
		c.Request(bs["b"], 300)
		c.Request(bs["b"], 1000)
		ck.advance(60)
	}
	if maxOut := lendFrac * l.cap; l.LentOut() > maxOut+1e-9 {
		t.Fatalf("lender outstanding %.1f exceeds cap %.1f", l.LentOut(), maxOut)
	}
}

// TestRepaymentPacedToRefill: after the debtor goes idle its refill
// inflow pays the lender back; by a full drain every loan clears and
// the principal is back in the lender's bucket.
func TestRepaymentPacedToRefill(t *testing.T) {
	rec := trace.New(1024)
	c, ck, bs := newTestCtl(t, Options{}, "debtor", "lender")
	c.SetTrace(rec)
	b, l := bs["debtor"], bs["lender"]
	c.Request(b, 300)
	c.Request(b, 1000) // escalation drains the bucket and borrows
	owed := b.Owed()
	if owed == 0 {
		t.Fatal("setup failed to create debt")
	}
	c.Release(b)
	// One second of refill repays at most rate×dt; the debt must shrink
	// but not vanish instantly.
	ck.advance(1)
	c.settle(b, ck.t)
	if got := b.Owed(); got >= owed || got == 0 {
		t.Fatalf("after 1s owed = %.1f (was %.1f): want partial, refill-paced repayment", got, owed)
	}
	// A long idle drain clears everything.
	ck.advance(10 * refillSec)
	c.settle(b, ck.t)
	if got := b.Owed(); got != 0 {
		t.Fatalf("debt not cleared by drain: %.1f", got)
	}
	if l.LentOut() != 0 {
		t.Fatalf("lender still shows %.1f outstanding", l.LentOut())
	}
	if len(rec.Filter(trace.KindRepay)) == 0 {
		t.Fatal("no repay event on the timeline")
	}
	if s := c.Stats(); s.Repays == 0 {
		t.Fatalf("stats = %+v: expected repays", s)
	}
}

// TestRecallReclaimsInForcePoints: a lender that turns active while its
// loan is in force claws the points back — the debtor's written weight
// drops on the spot, with no global sweep.
func TestRecallReclaimsInForcePoints(t *testing.T) {
	c, _, bs := newTestCtl(t, Options{}, "debtor", "lender")
	b, l := bs["debtor"], bs["lender"]
	g1 := c.Request(b, 300)
	g2 := c.Request(b, 1000) // escalation borrows from lender
	if g2 <= g1 {
		t.Fatalf("setup: debtor grant %d, expected a borrowed boost past %d", g2, g1)
	}
	before := b.cg.Weight()
	// The lender now wants more than its lend-depleted bucket can fund:
	// it must recall.
	c.Request(l, 1000)
	if s := c.Stats(); s.Recalls == 0 {
		t.Fatalf("stats = %+v: expected recalls", s)
	}
	if after := b.cg.Weight(); after >= before {
		t.Fatalf("debtor weight %d -> %d: recall should reduce it", before, after)
	}
}

// TestLedgerInvariants drives a seeded random schedule of request /
// release / advance / detach and asserts the core invariants after
// every operation: fills in [0, cap], per-lender principal below the
// hard cap, and Σ owed == Σ lentOut across the node.
func TestLedgerInvariants(t *testing.T) {
	names := []string{"s0", "s1", "s2", "s3", "s4", "s5"}
	c, ck, bs := newTestCtl(t, Options{}, names...)
	rng := rand.New(rand.NewSource(11))
	check := func(op string, i int) {
		t.Helper()
		var owed, lent float64
		for _, b := range c.buckets {
			if b.tokens < -1e-9 || b.tokens > b.cap+1e-9 {
				t.Fatalf("op %d %s: %s tokens %.3f outside [0, %.1f]", i, op, b.name, b.tokens, b.cap)
			}
			if maxOut := lendFrac * b.cap; b.lentOut > maxOut+1e-9 {
				t.Fatalf("op %d %s: %s lentOut %.3f > cap %.3f", i, op, b.name, b.lentOut, maxOut)
			}
			owed += b.Owed()
			lent += b.lentOut
		}
		if d := owed - lent; d > 1e-6 || d < -1e-6 {
			t.Fatalf("op %d %s: Σowed %.6f != ΣlentOut %.6f", i, op, owed, lent)
		}
	}
	for i := 0; i < 4000; i++ {
		b := bs[names[rng.Intn(len(names))]]
		var op string
		switch k := rng.Intn(10); {
		case k < 5:
			op = "request"
			c.Request(b, blkio.MinWeight+rng.Intn(blkio.MaxWeight-blkio.MinWeight))
		case k < 8:
			op = "release"
			c.Release(b)
		case k < 9:
			op = "advance"
			ck.advance(float64(rng.Intn(120)))
		default:
			op = "detach+reattach"
			c.Detach(b)
			nb, err := c.Attach(b.name, blkio.NewCgroup(b.name))
			if err != nil {
				t.Fatalf("op %d: reattach: %v", i, err)
			}
			bs[b.name] = nb
		}
		check(op, i)
	}
	// Drain: release everyone, advance far, settle — every loan repaid.
	for _, n := range names {
		c.Release(bs[n])
	}
	ck.advance(100 * refillSec)
	for _, n := range names {
		c.settle(bs[n], ck.t)
	}
	for _, n := range names {
		if owed := bs[n].Owed(); owed != 0 {
			t.Fatalf("drain left %s owing %.3f", n, owed)
		}
		if lent := bs[n].LentOut(); lent != 0 {
			t.Fatalf("drain left %s with %.3f outstanding", n, lent)
		}
	}
}

// TestHybridEpochResync: in hybrid mode the epoch boundary forgives the
// ledger and re-applies the coordinator's rescaled grants once.
func TestHybridEpochResync(t *testing.T) {
	c, ck, bs := newTestCtl(t, Options{EpochSec: 300}, "hi", "lo", "idle", "spike")
	hi, lo, spike := bs["hi"], bs["lo"], bs["spike"]
	c.Request(hi, 600)
	c.Request(lo, 150)
	c.Request(spike, 300)
	c.Request(spike, 1000) // escalation borrows, so the epoch has debt on the books
	if spike.Owed() == 0 {
		t.Fatal("setup: no debt before the epoch")
	}
	c.Release(spike)
	ck.advance(301)
	c.Request(hi, 600) // crosses the epoch: resync runs first
	if spike.Owed() != 0 {
		t.Fatalf("epoch left %.1f owed", spike.Owed())
	}
	// Coordinator-style rescale: 600/150 -> 1000/250.
	if w := hi.cg.Weight(); w != blkio.MaxWeight {
		t.Fatalf("hi weight after epoch = %d, want %d", w, blkio.MaxWeight)
	}
	if w := lo.cg.Weight(); w != 250 {
		t.Fatalf("lo weight after epoch = %d, want 250", w)
	}
}

// TestWeightFailMarksPending: an injected weight-write fault is
// tolerated; the next request re-asserts the grant once the fault
// clears.
func TestWeightFailMarksPending(t *testing.T) {
	c, ck, bs := newTestCtl(t, Options{}, "a")
	b := bs["a"]
	b.cg.SetWeightFailing(true)
	c.Request(b, 400)
	if !b.pending {
		t.Fatal("failed write did not mark the bucket pending")
	}
	if b.cg.Weight() != blkio.DefaultWeight {
		t.Fatalf("weight moved despite fault: %d", b.cg.Weight())
	}
	b.cg.SetWeightFailing(false)
	ck.advance(60)
	c.Request(b, 400)
	if b.pending || b.cg.Weight() != 800 {
		t.Fatalf("recovery failed: pending=%v weight=%d", b.pending, b.cg.Weight())
	}
}

func TestAttachDuplicateFails(t *testing.T) {
	c, _, _ := newTestCtl(t, Options{}, "a")
	if _, err := c.Attach("a", blkio.NewCgroup("a")); err == nil {
		t.Fatal("duplicate attach did not fail")
	}
	if c.Lookup("a") == nil || c.Lookup("ghost") != nil {
		t.Fatal("lookup misbehaves")
	}
}

// TestDetachWritesOffLedger: detaching a debtor clears its lenders'
// books; detaching a lender forgives its debtors.
func TestDetachWritesOffLedger(t *testing.T) {
	c, _, bs := newTestCtl(t, Options{}, "debtor", "lender")
	b, l := bs["debtor"], bs["lender"]
	c.Request(b, 300)
	c.Request(b, 1000)
	if l.LentOut() == 0 {
		t.Fatal("setup: nothing lent")
	}
	c.Detach(b)
	if l.LentOut() != 0 || len(l.debtors) != 0 {
		t.Fatalf("detach left lender books dirty: lentOut=%.1f debtors=%d", l.LentOut(), len(l.debtors))
	}
	// Now the reverse: a lender detaches out from under its debtor.
	b2, _ := c.Attach("debtor2", blkio.NewCgroup("debtor2"))
	c.Request(b2, 300)
	c.Request(b2, 1000)
	if b2.Owed() == 0 {
		t.Fatal("setup: no debt")
	}
	c.Detach(l)
	if b2.Owed() != 0 {
		t.Fatalf("lender detach left debtor owing %.1f", b2.Owed())
	}
}

// TestRequestZeroAllocTokens: with no recorder and no resil controller
// attached, the steady-state request/release cycle — including a
// borrow-heavy schedule — performs no allocation.
func TestRequestZeroAllocTokens(t *testing.T) {
	ck := &clock{}
	c := New(ck.now, Options{})
	var bks [8]*Bucket
	for i, n := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		b, err := c.Attach(n, blkio.NewCgroup(n))
		if err != nil {
			t.Fatal(err)
		}
		bks[i] = b
	}
	// Warm up: populate ledgers once.
	for i, b := range bks[:4] {
		c.Request(b, 300+100*i)
		c.Request(b, 1000)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		b := bks[i%4]
		c.Request(b, 300+(i%7)*100)
		c.Request(b, 1000) // mid-window escalation exercises borrow
		c.Release(b)
		ck.advance(7)
		i++
	})
	if allocs != 0 {
		t.Fatalf("request/release allocates %.1f per run, want 0", allocs)
	}
}
