package device

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tango/internal/blkio"
	"tango/internal/sim"
)

// refGroup is one (cgroup, direction) group of the reference reshape.
type refGroup struct {
	cg      *blkio.Cgroup
	write   bool
	weight  float64
	cap     float64 // 0 = unlimited
	alloc   float64
	perFlow float64
	nflows  int
}

// referenceRates is reshape's share computation as it ran while reshape
// rebuilt the (cgroup, direction) groups from the flow list on every call
// and water-filled over index slices, kept as the reference the kept
// group table is held to. It returns the rate of every active flow, in
// d.flows order, under the device's state now.
func referenceRates(d *Device) []float64 {
	rates := make([]float64, len(d.flows))
	n := len(d.flows)
	if n == 0 {
		return rates
	}
	if d.p.Scheduler == FIFO {
		rates[0] = d.p.PeakBandwidth * d.bwFactor * d.share
		return rates
	}
	total := d.EffectiveBandwidth(n)

	var groups []refGroup
	gi := make([]int, n)
	for i, f := range d.flows {
		g := -1
		for j := range groups {
			if groups[j].cg == f.cg && groups[j].write == f.write {
				g = j
				break
			}
		}
		if g < 0 {
			cap := f.cg.ReadBpsLimit()
			if f.write {
				cap = f.cg.WriteBpsLimit()
			}
			groups = append(groups, refGroup{
				cg: f.cg, write: f.write,
				weight: float64(f.cg.Weight()), cap: cap,
			})
			g = len(groups) - 1
		}
		groups[g].nflows++
		gi[i] = g
	}

	var cur, nxt, capped []int
	for j := range groups {
		cur = append(cur, j)
	}
	remaining := total
	for len(cur) > 0 && remaining > 1e-9 {
		var sumW float64
		for _, j := range cur {
			sumW += groups[j].weight
		}
		if sumW <= 0 {
			break
		}
		capped = capped[:0]
		nxt = nxt[:0]
		for _, j := range cur {
			g := &groups[j]
			tent := remaining * g.weight / sumW
			if g.cap > 0 && tent >= g.cap {
				capped = append(capped, j)
			} else {
				nxt = append(nxt, j)
			}
		}
		if len(capped) == 0 {
			for _, j := range cur {
				g := &groups[j]
				g.alloc = remaining * g.weight / sumW
			}
			break
		}
		for _, j := range capped {
			g := &groups[j]
			g.alloc = g.cap
			remaining -= g.cap
		}
		if remaining < 0 {
			remaining = 0
		}
		cur, nxt = nxt, cur
	}

	wf := d.p.WriteFactor
	if wf == 0 {
		wf = 1
	}
	for j := range groups {
		g := &groups[j]
		g.perFlow = g.alloc / float64(g.nflows)
	}
	for i, f := range d.flows {
		per := groups[gi[i]].perFlow
		if f.write {
			rates[i] = per * wf
		} else {
			rates[i] = per
		}
	}
	return rates
}

// referenceWhen is the time scheduleCompletion arms the timer for under
// rates, as the engine clamps it, as of the last reshape (the last
// advance); +Inf for no timer.
func referenceWhen(d *Device, rates []float64) float64 {
	next := math.Inf(1)
	for i, f := range d.flows {
		if rates[i] > 0 {
			next = math.Min(next, f.bytesRem/rates[i])
		}
	}
	when := d.lastUpdate + next
	for _, f := range d.flows {
		when = math.Min(when, f.deadline())
	}
	return math.Max(when, d.lastUpdate)
}

// churn is one seeded run of random flow churn against a device, checked
// against the reference after every event.
type churn struct {
	t     *testing.T
	seed  int64
	rng   *rand.Rand
	eng   *sim.Engine
	d     *Device
	cgs   []*blkio.Cgroup
	idle  []*Token
	live  []*Token
	armed float64   // the reference's completion time after the last check
	probe sim.Timer // the probe event at armed
}

// check compares every flow's rate with the reference's by bits, and arms
// the probe at the reference's completion time.
func (c *churn) check(what string) {
	rates := referenceRates(c.d)
	for i, f := range c.d.flows {
		if math.Float64bits(f.rate) != math.Float64bits(rates[i]) {
			c.t.Fatalf("seed %d, t=%v, after %s: flow %d of %d: rate %v, reference %v",
				c.seed, c.eng.Now(), what, i, len(c.d.flows), f.rate, rates[i])
		}
	}
	c.armed = referenceWhen(c.d, rates)
	c.probe.Stop()
	if !math.IsInf(c.armed, 1) {
		c.probe = c.eng.AtCall(c.armed, c)
	}
}

// Fire is the probe: queued after the device armed its completion timer
// for the same instant, it finds the device advanced to that instant
// exactly when the timer fired at the reference's time, and nothing left
// due then — every drained flow completed, every deadline expired.
func (c *churn) Fire() {
	if math.Float64bits(c.d.lastUpdate) != math.Float64bits(c.armed) {
		c.t.Fatalf("seed %d: at the reference's completion time %v the device was last advanced at %v",
			c.seed, c.armed, c.d.lastUpdate)
	}
	now := c.armed
	if c.check("the completion timer"); c.armed <= now {
		c.t.Fatalf("seed %d, t=%v: the completion timer left a completion or an expiry due", c.seed, now)
	}
}

// TransferDone recycles the token and sometimes issues the next transfer
// at once, as a callback reader would.
func (c *churn) TransferDone(tok *Token, _ error) {
	for i, l := range c.live {
		if l == tok {
			c.live = append(c.live[:i], c.live[i+1:]...)
			break
		}
	}
	c.idle = append(c.idle, tok)
	if c.rng.Intn(2) == 0 {
		c.issue()
	}
	c.check("a completion")
}

// issue starts a read or a write of a random cgroup, with a deadline one
// time in four.
func (c *churn) issue() {
	if len(c.idle) == 0 {
		return
	}
	tok := c.idle[len(c.idle)-1]
	c.idle = c.idle[:len(c.idle)-1]
	cg := c.cgs[c.rng.Intn(len(c.cgs))]
	write := c.rng.Intn(3) == 0
	bytes := 50 + c.rng.Float64()*3000
	if c.rng.Intn(20) == 0 {
		bytes = 0
	}
	deadline := 0.0
	if c.rng.Intn(4) == 0 {
		deadline = c.eng.Now() + c.rng.Float64()*6
	}
	if ended, _ := c.d.Begin(cg, bytes, write, false, tok, deadline, c); ended {
		c.idle = append(c.idle, tok)
		return
	}
	c.live = append(c.live, tok)
}

// throttle draws a byte-rate limit: none, one that binds, or one too high
// to, never an integer.
func (c *churn) throttle() float64 {
	switch c.rng.Intn(3) {
	case 0:
		return 0
	case 1:
		return 15.5 + c.rng.Float64()*300
	default:
		return 2000 + c.rng.Float64()*1000
	}
}

// op is one scheduled event: an issue, a cancel, a weight or throttle write,
// a stuck or degraded device, a share change.
func (c *churn) op() {
	var what string
	switch k := c.rng.Intn(10); {
	case k < 4:
		what = "an issue"
		c.issue()
	case k == 4:
		what = "a cancel"
		if len(c.live) > 0 {
			c.live[c.rng.Intn(len(c.live))].Cancel()
		}
	case k == 5:
		what = "a weight write"
		c.cgs[c.rng.Intn(len(c.cgs))].SetWeight(blkio.MinWeight + c.rng.Intn(blkio.MaxWeight-blkio.MinWeight+1))
	case k == 6:
		what = "a throttle write"
		cg := c.cgs[c.rng.Intn(len(c.cgs))]
		if c.rng.Intn(2) == 0 {
			cg.SetReadBpsLimit(c.throttle())
		} else {
			cg.SetWriteBpsLimit(c.throttle())
		}
	case k == 7:
		what = "a fault"
		switch c.rng.Intn(3) {
		case 0:
			c.d.SetFault(0, 0)
		case 1:
			c.d.SetFault(0.2+0.8*c.rng.Float64(), 0)
		default:
			c.d.ClearFault()
		}
	case k == 8:
		what = "a share change"
		c.d.SetShare(0.1 + 0.9*c.rng.Float64())
	default:
		what = "an idle event"
	}
	c.check(what)
}

func runChurn(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	eng := sim.NewEngine()
	p := Params{
		Name:          "dev",
		PeakBandwidth: 500 + rng.Float64()*1500,
		SeekThrash:    rng.Float64() * 0.4,
		MinEfficiency: 0.2 + rng.Float64()*0.5,
	}
	if rng.Intn(2) == 0 {
		p.WriteFactor = 0.5 + rng.Float64()/2
	}
	if seed%10 == 9 {
		p.Scheduler = FIFO
	}
	c := &churn{t: t, seed: seed, rng: rng, eng: eng, d: New(eng, p), armed: math.Inf(1)}
	for i := 0; i < 2+rng.Intn(6); i++ {
		cg := blkio.NewCgroup(fmt.Sprintf("cg%d", i))
		cg.SetWeight(blkio.MinWeight + rng.Intn(blkio.MaxWeight-blkio.MinWeight+1))
		cg.SetReadBpsLimit(c.throttle())
		cg.SetWriteBpsLimit(c.throttle())
		c.cgs = append(c.cgs, cg)
	}
	for i := 0; i < 24; i++ {
		c.idle = append(c.idle, new(Token))
	}
	for i := 0; i < 300; i++ {
		eng.At(rng.Float64()*60, c.op)
	}
	eng.At(60, func() { // a stuck device left stuck would hold its flows forever
		c.d.ClearFault()
		c.check("the last fault clearing")
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(c.d.flows) != 0 || len(c.d.groups) != 0 || !math.IsInf(c.armed, 1) {
		t.Fatalf("seed %d: %d flows and %d groups left, timer for %v", seed, len(c.d.flows), len(c.d.groups), c.armed)
	}
}

// TestReshapeMatchesRebuild: under random flow churn — issues, drains,
// cancels and deadline expiries of reads and writes sharing cgroups,
// weight writes, throttles that bind and that do not, a stuck device —
// every flow's rate and the completion timer are, bit for bit, what the
// reference's group rebuild and index-slice water-filling give. Weights
// are integers, so only the order the binding fractional caps are
// subtracted in can tell a group table in the wrong order.
func TestReshapeMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		runChurn(t, seed)
	}
}
