package resil

import (
	"errors"
	"fmt"
	"testing"

	"tango/internal/blkio"
	"tango/internal/device"
	"tango/internal/sim"
)

func flatParams(name string, peak float64) device.Params {
	return device.Params{Name: name, PeakBandwidth: peak, MinEfficiency: 1, SeekThrash: 0}
}

func TestClassifyRead(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{nil, ClassOK},
		{fmt.Errorf("device %q: %w", "hdd", device.ErrRead), ClassRetryable},
		{fmt.Errorf("device %q: %w", "hdd", device.ErrCanceled), ClassRetryable},
		{errors.New("disk on fire"), ClassTerminal},
	}
	for _, c := range cases {
		if got := ClassifyRead(c.err); got != c.want {
			t.Errorf("ClassifyRead(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestClassifyWeight(t *testing.T) {
	if got := ClassifyWeight(nil); got != ClassOK {
		t.Errorf("nil = %v", got)
	}
	wrapped := fmt.Errorf("cgroup %q: %w", "a", blkio.ErrWeightWrite)
	if got := ClassifyWeight(wrapped); got != ClassRetryable {
		t.Errorf("weight fault = %v", got)
	}
	if got := ClassifyWeight(errors.New("other")); got != ClassTerminal {
		t.Errorf("unknown = %v", got)
	}
}

func TestUnboundedReadRetriesUntilFaultClears(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Options{})
	d := device.New(eng, flatParams("hdd", 100))
	d.SetReadError(true)
	cg := blkio.NewCgroup("a")
	k := c.Key(KeyStagingReadCapacity)
	var res ReadResult
	eng.Spawn("reader", func(p *sim.Proc) {
		res = k.Read(p, d, cg, 1000)
	})
	eng.Spawn("healer", func(p *sim.Proc) {
		p.Sleep(2)
		d.SetReadError(false)
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("mandatory read must eventually succeed: %+v", res)
	}
	if res.Retries == 0 {
		t.Fatal("expected retries while the fault was active")
	}
	st := k.Stats()
	if st.Ops != 1 || st.Retries != res.Retries || st.Attempts != res.Attempts {
		t.Fatalf("stats mismatch: %+v vs %+v", st, res)
	}
}

func TestBoundedReadDegradesAtAttemptLimit(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Options{})
	d := device.New(eng, flatParams("hdd", 100))
	d.SetReadError(true)
	cg := blkio.NewCgroup("a")
	k := c.Key(KeyStagingReadOptional)
	var res ReadResult
	eng.Spawn("reader", func(p *sim.Proc) {
		res = k.Read(p, d, cg, 1000)
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if res.OK || !res.Degraded {
		t.Fatalf("persistent fault should degrade a bounded key: %+v", res)
	}
	if res.Attempts != k.Policy().MaxAttempts {
		t.Fatalf("attempts = %d, want MaxAttempts = %d", res.Attempts, k.Policy().MaxAttempts)
	}
	if !errors.Is(res.Err, device.ErrRead) {
		t.Fatalf("last error should surface: %v", res.Err)
	}
}

func TestDeadlineCancelsStuckDevice(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Options{})
	d := device.New(eng, flatParams("hdd", 100))
	d.SetFault(0, 0) // stuck: flows make no progress
	cg := blkio.NewCgroup("a")
	k := c.Key(KeyStagingReadOptional)
	var res ReadResult
	eng.Spawn("reader", func(p *sim.Proc) {
		res = k.Read(p, d, cg, 1000)
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatalf("stuck device should not satisfy a deadlined read: %+v", res)
	}
	if res.Timeouts != res.Attempts {
		t.Fatalf("every attempt should time out: %+v", res)
	}
	if !errors.Is(res.Err, device.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", res.Err)
	}
}

func TestTerminalErrorFailsImmediately(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, Options{}).Key(KeyStagingReadOptional)
	k.setPolicy(&Policy{Name: "t", MaxAttempts: 5, Backoff: 0.1, Factor: 2,
		Classify: func(error) Class { return ClassTerminal }})
	d := device.New(eng, flatParams("hdd", 100))
	d.SetReadError(true)
	cg := blkio.NewCgroup("a")
	var res ReadResult
	eng.Spawn("reader", func(p *sim.Proc) {
		res = k.Read(p, d, cg, 1000)
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Attempts != 1 || res.Retries != 0 {
		t.Fatalf("terminal outcome must not retry: %+v", res)
	}
	if k.Stats().Failures != 1 {
		t.Fatalf("failure not counted: %+v", k.Stats())
	}
}

func TestBudgetPacesMandatoryRetries(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, Options{}).Key(KeyStagingReadCapacity)
	k.setPolicy(&Policy{Name: "m", MaxAttempts: 0, Backoff: 0.01, Factor: 1,
		Classify: ClassifyRead, BudgetCap: 2, BudgetRefill: 0.5})
	d := device.New(eng, flatParams("hdd", 100))
	d.SetReadError(true)
	cg := blkio.NewCgroup("a")
	var res ReadResult
	eng.Spawn("reader", func(p *sim.Proc) {
		res = k.Read(p, d, cg, 100)
	})
	eng.Spawn("healer", func(p *sim.Proc) {
		p.Sleep(30)
		d.SetReadError(false)
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("mandatory read must survive the dry budget: %+v", res)
	}
	st := k.Stats()
	if st.BudgetPaced == 0 {
		t.Fatalf("expected pacing once the 2-token budget drained: %+v", st)
	}
	// Paced to 0.5 tokens/s: a 30 s outage admits roughly cap + 30×refill
	// attempts, not hundreds of tight-backoff ones.
	if st.Attempts > 25 {
		t.Fatalf("pacing failed to bound the retry storm: %d attempts", st.Attempts)
	}
}

func TestBudgetDeniesBoundedRetries(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, Options{}).Key(KeyStagingReadOptional)
	k.setPolicy(&Policy{Name: "b", MaxAttempts: 10, Backoff: 0.01, Factor: 1,
		Classify: ClassifyRead, BudgetCap: 2, BudgetRefill: 0.001})
	d := device.New(eng, flatParams("hdd", 100))
	d.SetReadError(true)
	cg := blkio.NewCgroup("a")
	var res ReadResult
	eng.Spawn("reader", func(p *sim.Proc) {
		res = k.Read(p, d, cg, 100)
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if res.OK || !res.Degraded {
		t.Fatalf("bounded read should degrade when the budget denies: %+v", res)
	}
	if k.Stats().BudgetDenied != 1 {
		t.Fatalf("denial not counted: %+v", k.Stats())
	}
	if res.Attempts > 3 {
		t.Fatalf("budget cap 2 admits at most 3 attempts, got %d", res.Attempts)
	}
}

func TestBreakerLifecycleOnWeightWrites(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Options{})
	cg := blkio.NewCgroup("analytics")
	cg.SetWeightFailing(true)
	k := c.Key(KeyWeightApply)
	pol := k.Policy()

	eng.Spawn("ctl", func(p *sim.Proc) {
		// Failures up to the threshold trip the breaker.
		for i := 0; i < pol.BreakerThreshold; i++ {
			if res := k.Weight(cg, 500); res.OK || res.Skipped {
				t.Errorf("write %d should fail outright: %+v", i, res)
			}
			p.Sleep(1)
		}
		br := c.Breaker(cg.Name())
		if br == nil || br.State(eng.Now()) != BreakerOpen {
			t.Fatalf("breaker should be open after %d failures", pol.BreakerThreshold)
		}
		// While open: writes are suppressed, the cgroup file is untouched.
		if res := k.Weight(cg, 500); !res.Skipped {
			t.Errorf("open breaker should skip, got %+v", res)
		}
		// Past the cooldown the half-open probe is admitted; with the
		// fault still active it fails and re-opens.
		p.Sleep(pol.BreakerCooldown)
		if res := k.Weight(cg, 500); res.OK || res.Skipped {
			t.Errorf("half-open probe should be admitted and fail: %+v", res)
		}
		if br.State(eng.Now()) != BreakerOpen {
			t.Error("failed probe should re-open the breaker")
		}
		// Heal, wait out the cooldown: the next probe closes the breaker.
		cg.SetWeightFailing(false)
		p.Sleep(pol.BreakerCooldown)
		if res := k.Weight(cg, 500); !res.OK {
			t.Errorf("post-heal probe should land: %+v", res)
		}
		if br.State(eng.Now()) != BreakerClosed {
			t.Error("successful probe should close the breaker")
		}
		if cg.Weight() != 500 {
			t.Errorf("weight should be applied, got %d", cg.Weight())
		}
		if br.Opens() != 2 {
			t.Errorf("opens = %d, want 2 (trip + failed probe)", br.Opens())
		}
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if c.Totals().BreakerOpens != 2 {
		t.Fatalf("controller opens = %d, want 2", c.Totals().BreakerOpens)
	}
}

func TestBreakerDeniesOptionalReads(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Options{})
	d := device.New(eng, flatParams("hdd", 100))
	d.SetReadError(true)
	cg := blkio.NewCgroup("a")
	k := c.Key(KeyStagingReadOptional)
	var denied ReadResult
	eng.Spawn("reader", func(p *sim.Proc) {
		for i := 0; i < 3; i++ { // trips the threshold-4 breaker
			k.Read(p, d, cg, 100)
			p.Sleep(0.5)
		}
		denied = k.Read(p, d, cg, 100)
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !denied.Denied || denied.Attempts != 0 {
		t.Fatalf("open breaker should deny on entry: %+v", denied)
	}
	if k.Stats().BreakerDenied == 0 {
		t.Fatal("denial not counted")
	}
}

func hedgeController(eng *sim.Engine, contended bool) *Controller {
	c := New(eng, Options{Hedge: HedgeConfig{Enabled: true}})
	c.SetForecast(func() (next, peak float64, ok bool) {
		if contended {
			return 10, 100, true // next-window bandwidth collapsed: contended
		}
		return 90, 100, true // quiet window: no hedge
	})
	return c
}

func TestHedgedReadFastTierWins(t *testing.T) {
	eng := sim.NewEngine()
	c := hedgeController(eng, true)
	fast := device.New(eng, flatParams("ssd", 1000*1024*1024))
	slow := device.New(eng, flatParams("hdd", 10*1024*1024))
	cg := blkio.NewCgroup("a")
	k := c.Key(KeyStagingReadHedge)
	bytes := 8.0 * 1024 * 1024
	var res HedgeResult
	eng.Spawn("reader", func(p *sim.Proc) {
		res = hedgedRead(k, p, fast, slow, cg, bytes)
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !res.Hedged || !res.OK || !res.FastWon {
		t.Fatalf("fast tier should win the race: %+v", res)
	}
	if res.FastMoved != bytes {
		t.Fatalf("winner moved %v, want %v", res.FastMoved, bytes)
	}
	if res.SlowMoved >= bytes {
		t.Fatalf("loser should be cancelled early, moved %v", res.SlowMoved)
	}
	st := k.Stats()
	if st.Hedges != 1 || st.HedgeFastWins != 1 || st.WastedBytes != res.SlowMoved {
		t.Fatalf("hedge stats: %+v", st)
	}
}

func TestHedgedReadSlowTierCoversFastFault(t *testing.T) {
	eng := sim.NewEngine()
	c := hedgeController(eng, true)
	fast := device.New(eng, flatParams("ssd", 1000*1024*1024))
	fast.SetReadError(true)
	slow := device.New(eng, flatParams("hdd", 10*1024*1024))
	cg := blkio.NewCgroup("a")
	k := c.Key(KeyStagingReadHedge)
	var res HedgeResult
	eng.Spawn("reader", func(p *sim.Proc) {
		res = hedgedRead(k, p, fast, slow, cg, 8*1024*1024)
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.FastWon {
		t.Fatalf("slow leg should cover the faulted fast tier: %+v", res)
	}
	if k.Stats().HedgeSlowWins != 1 {
		t.Fatalf("slow win not counted: %+v", k.Stats())
	}
}

func TestHedgeLoserCancelledInsideRequestLatency(t *testing.T) {
	// The fast leg finishes (8 ms) while the slow leg is still paying its
	// 50 ms request latency: the cancel lands before any flow exists, so
	// the loser returns when its latency expires and leaves no trace on
	// its device or in the cgroup's byte counters.
	eng := sim.NewEngine()
	c := hedgeController(eng, true)
	fast := device.New(eng, flatParams("ssd", 1000*1024*1024))
	sp := flatParams("hdd", 10*1024*1024)
	sp.RequestLatency = 0.05
	slow := device.New(eng, sp)
	cg := blkio.NewCgroup("a")
	k := c.Key(KeyStagingReadHedge)
	bytes := 8.0 * 1024 * 1024
	var res HedgeResult
	eng.Spawn("reader", func(p *sim.Proc) {
		res = hedgedRead(k, p, fast, slow, cg, bytes)
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !res.OK || !res.FastWon {
		t.Fatalf("fast tier should win the race: %+v", res)
	}
	if res.Elapsed != 0.05 {
		t.Fatalf("race returns at the loser's start+latency: elapsed %v, want 0.05", res.Elapsed)
	}
	if res.SlowMoved != 0 || slow.TotalBytes() != 0 || slow.BusyTime() != 0 {
		t.Fatalf("loser issued I/O: moved %v, device bytes %v, busy %v", res.SlowMoved, slow.TotalBytes(), slow.BusyTime())
	}
	if cg.BytesRead() != bytes {
		t.Fatalf("cgroup read %v bytes, want the winner's %v only", cg.BytesRead(), bytes)
	}
	if st := k.Stats(); st.WastedBytes != 0 {
		t.Fatalf("nothing was wasted: %+v", st)
	}
}

func TestHedgeDecisionRule(t *testing.T) {
	eng := sim.NewEngine()
	quiet := hedgeController(eng, false)
	fast := device.New(eng, flatParams("ssd", 1000*1024*1024))
	slow := device.New(eng, flatParams("hdd", 10*1024*1024))
	cg := blkio.NewCgroup("a")
	eng.Spawn("reader", func(p *sim.Proc) {
		// Quiet forecast: no hedge regardless of size.
		if res := hedgedRead(quiet.Key(KeyStagingReadHedge), p, fast, slow, cg, 64*1024*1024); res.Hedged {
			t.Errorf("quiet window must not hedge: %+v", res)
		}
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}

	eng2 := sim.NewEngine()
	contended := hedgeController(eng2, true)
	fast2 := device.New(eng2, flatParams("ssd", 1000*1024*1024))
	slow2 := device.New(eng2, flatParams("hdd", 10*1024*1024))
	eng2.Spawn("reader", func(p *sim.Proc) {
		// Below hedgeMinBytes the race cannot pay for itself.
		if res := hedgedRead(contended.Key(KeyStagingReadHedge), p, fast2, slow2, blkio.NewCgroup("b"), 1024); res.Hedged {
			t.Errorf("tiny read must not hedge: %+v", res)
		}
	})
	if err := eng2.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestHedgeSkippedWithoutForecast(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Options{Hedge: HedgeConfig{Enabled: true}})
	fast := device.New(eng, flatParams("ssd", 1000*1024*1024))
	slow := device.New(eng, flatParams("hdd", 10*1024*1024))
	cg := blkio.NewCgroup("a")
	eng.Spawn("reader", func(p *sim.Proc) {
		if res := hedgedRead(c.Key(KeyStagingReadHedge), p, fast, slow, cg, 64*1024*1024); res.Hedged {
			t.Errorf("no forecast and closed breaker: must not hedge: %+v", res)
		}
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestAmplification(t *testing.T) {
	if got := (Totals{}).Amplification(); got != 1 {
		t.Fatalf("no ops → 1, got %v", got)
	}
	if got := (Totals{Ops: 4, Attempts: 6}).Amplification(); got != 1.5 {
		t.Fatalf("6/4 = %v", got)
	}
}

// TestNilKeyWeightIsDirectWrite: the key of a nil controller is the
// direct path — one TrySetWeight, its outcome as OK, never Skipped — on a
// healthy and on a weight-faulted cgroup alike.
func TestNilKeyWeightIsDirectWrite(t *testing.T) {
	var k *Key = (*Controller)(nil).Key(KeyWeightApply)
	for _, failing := range []bool{false, true} {
		got, want := blkio.NewCgroup("a"), blkio.NewCgroup("b")
		got.SetWeightFailing(failing)
		want.SetWeightFailing(failing)
		for w := 700; w < 705; w++ { // past any breaker threshold: there is no breaker
			res := k.Weight(got, w)
			err := want.TrySetWeight(w)
			if res.OK != (err == nil) || res.Skipped || got.Weight() != want.Weight() {
				t.Fatalf("failing=%t: nil key gave %+v, weight %d; direct write gave err %v, weight %d",
					failing, res, got.Weight(), err, want.Weight())
			}
		}
	}
}

// TestBreakerCacheFollowsTarget: a key remembers the breaker of the last
// target it guarded; alternating targets must still reach each target's
// own breaker, shared with every other key that guards the same target.
func TestBreakerCacheFollowsTarget(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Options{})
	bad, good := device.New(eng, flatParams("bad", 100)), device.New(eng, flatParams("good", 100))
	bad.SetReadError(true)
	cg := blkio.NewCgroup("a")
	opt, probe := c.Key(KeyStagingReadOptional), c.Key(KeyStagingProbe)
	eng.Spawn("reader", func(p *sim.Proc) {
		for i := 0; i < 4; i++ { // interleaved: the cache flips on every call
			if res := opt.Read(p, bad, cg, 100); res.OK {
				t.Errorf("read %d of the failing device succeeded", i)
			}
			if res := opt.Read(p, good, cg, 100); !res.OK || res.Denied {
				t.Errorf("read %d of the healthy device: %+v", i, res)
			}
			p.Sleep(0.5)
		}
		if res := probe.Read(p, bad, cg, 100); !res.Denied {
			t.Errorf("the probe key must see the breaker the optional key tripped: %+v", res)
		}
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if b := c.Breaker("bad"); b == nil || b.State(eng.Now()) != BreakerOpen || b == c.Breaker("good") {
		t.Fatalf("breakers: bad %+v good %+v", c.Breaker("bad"), c.Breaker("good"))
	}
	if c.Breaker("good").Opens() != 0 {
		t.Fatal("the healthy target's breaker opened")
	}
	if k := c.Key(KeyStagingReadCapacity); k.breaker("bad", true) != nil {
		t.Fatal("a key with BreakerThreshold 0 has no breaker")
	}
}
