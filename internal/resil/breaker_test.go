package resil

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tango/internal/blkio"
	"tango/internal/sim"
	"tango/internal/trace"
)

// weightReference is Key.Weight as it was while every cgroup whose weight
// was ever written got a breaker at that first write. Kept verbatim (only
// breaker's create argument is new) as the reference
// TestLazyBreakerMatchesEagerReference compares the made-on-first-failure
// breaker with.
func weightReference(k *Key, cg *blkio.Cgroup, w int) WeightResult {
	k.stats.Ops++
	c := k.c
	br := k.breaker(cg.Name(), true)
	now := c.eng.Now()
	if br != nil && !br.allow(now) {
		k.stats.BreakerDenied++
		return WeightResult{Skipped: true}
	}
	k.stats.Attempts++
	err := cg.TrySetWeight(w)
	if k.pol.Classify(err) == ClassOK {
		if br != nil && br.onSuccess() && c.rec != nil {
			c.emit(trace.KindRecover, "weight write recovered key=%s target=%s: re-applied w=%d",
				k.pol.Name, cg.Name(), w)
		}
		return WeightResult{OK: true}
	}
	k.stats.Failures++
	if br != nil && br.onFailure(now) {
		c.brOpens++
		if c.rec != nil {
			c.emit(trace.KindBreaker, "open key=%s target=%s fails=%d cooldown=%.3gs: weight writes suppressed", k.pol.Name, cg.Name(), br.fails, br.cooldown)
		}
	} else if c.rec != nil {
		c.emit(trace.KindAttempt, "fail key=%s target=%s w=%d: tolerated, re-apply next tick", k.pol.Name, cg.Name(), w)
	}
	return WeightResult{}
}

func weightCurrent(k *Key, cg *blkio.Cgroup, w int) WeightResult { return k.Weight(cg, w) }

// weightOp is one step of a weight script: wait, maybe flip a cgroup's
// injected weight fault, write a weight through one of the keys.
type weightOp struct {
	wait    float64
	flip    int // cgroup whose fault toggles before the write; -1 = none
	key, cg int
	w       int
}

// weightKeys are the catalog's weight keys — one breaker-parameter class,
// as the catalog promises per target class — plus a read key whose policy
// has no breaker at all.
var weightKeys = []KeyID{KeyWeightApply, KeyCoordWeightApply, KeyPrefetchWeightFloor, KeyTokenWeightApply, KeyStagingReadBase}

const weightScriptCgroups = 4

func randomWeightScript(rng *rand.Rand) []weightOp {
	ops := make([]weightOp, 20+rng.Intn(40))
	for i := range ops {
		op := weightOp{flip: -1, key: rng.Intn(len(weightKeys)), cg: rng.Intn(weightScriptCgroups), w: 50 + rng.Intn(1100)}
		// Mostly control ticks well inside the 5 s cooldown, sometimes a
		// gap that crosses it, so breakers open, probe and close.
		if op.wait = rng.Float64(); rng.Intn(5) == 0 {
			op.wait += 6 * rng.Float64()
		}
		if rng.Intn(6) == 0 {
			op.flip = rng.Intn(weightScriptCgroups)
		}
		ops[i] = op
	}
	return ops
}

// playWeights runs the script against a fresh controller and renders every
// observable the two breakers could disagree on.
func playWeights(t *testing.T, ops []weightOp, write func(*Key, *blkio.Cgroup, int) WeightResult, startFailing int) (string, *Controller) {
	t.Helper()
	eng := sim.NewEngine()
	rec := trace.New(4096)
	c := New(eng, Options{Trace: rec})
	cgs := make([]*blkio.Cgroup, weightScriptCgroups)
	for i := range cgs {
		cgs[i] = blkio.NewCgroup(fmt.Sprintf("cg%d", i))
	}
	if startFailing >= 0 {
		cgs[startFailing].SetWeightFailing(true)
	}
	var out strings.Builder
	eng.Spawn("ctl", func(p *sim.Proc) {
		for _, op := range ops {
			p.Sleep(op.wait)
			if op.flip >= 0 {
				cgs[op.flip].SetWeightFailing(!cgs[op.flip].WeightFailing())
			}
			res := write(c.Key(weightKeys[op.key]), cgs[op.cg], op.w)
			fmt.Fprintf(&out, "%x %s %s %+v\n", math.Float64bits(eng.Now()), catalog[weightKeys[op.key]].Name, cgs[op.cg].Name(), res)
		}
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i := range c.keys {
		fmt.Fprintf(&out, "%s %+v\n", c.keys[i].pol.Name, c.keys[i].stats)
	}
	fmt.Fprintf(&out, "totals %+v\n", c.Totals())
	for _, cg := range cgs {
		fmt.Fprintf(&out, "%s w=%d failing=%t\n", cg.Name(), cg.Weight(), cg.WeightFailing())
	}
	for _, ev := range rec.Events() {
		fmt.Fprintf(&out, "%x %s %s %s\n", math.Float64bits(ev.T), ev.Source, ev.Kind, ev.Msg())
	}
	return out.String(), c
}

// TestLazyBreakerMatchesEagerReference: a breaker made at a target's first
// failed weight write decides, counts and traces exactly like one made at
// its first write, over seeded scripts of failing and succeeding writes
// through every weight key — including targets whose very first write
// fails, which must still open, probe half-open and close.
func TestLazyBreakerMatchesEagerReference(t *testing.T) {
	opens, recovered, neverFailed := 0, 0, 0
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := randomWeightScript(rng)
		startFailing := rng.Intn(weightScriptCgroups+1) - 1
		got, c := playWeights(t, ops, weightCurrent, startFailing)
		want, ref := playWeights(t, ops, weightReference, startFailing)
		if got != want {
			t.Fatalf("seed %d: lazy breaker differs from the eager reference\n--- lazy\n%s--- eager\n%s", seed, got, want)
		}
		opens += c.Totals().BreakerOpens
		recovered += strings.Count(got, "weight write recovered")
		for i := 0; i < weightScriptCgroups; i++ {
			name := fmt.Sprintf("cg%d", i)
			lazy, eager := c.Breaker(name), ref.Breaker(name)
			if lazy == nil && eager != nil {
				if eager.fails != 0 || eager.opens != 0 || eager.state != BreakerClosed {
					t.Fatalf("seed %d: %s has no breaker but the reference's carries state: %+v", seed, name, eager)
				}
				neverFailed++
			} else if lazy != nil && (eager == nil || *lazy != *eager) {
				t.Fatalf("seed %d: %s breaker %+v, reference %+v", seed, name, lazy, eager)
			}
		}
	}
	if opens < 100 || recovered < 100 || neverFailed < 100 {
		t.Error("sweep too tame")
	}
	t.Logf("sweep: %d opens, %d recoveries, %d targets that never failed", opens, recovered, neverFailed)
}

// TestBreakerAppearsOnFirstFailure pins the point of the change: writes
// that land leave no breaker behind, the first failure makes one, and a
// target first seen failing walks open → half-open → closed.
func TestBreakerAppearsOnFirstFailure(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Options{})
	k := c.Key(KeyCoordWeightApply)
	pol := k.Policy()
	good, bad := blkio.NewCgroup("good"), blkio.NewCgroup("bad")
	bad.SetWeightFailing(true)
	eng.Spawn("ctl", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if res := k.Weight(good, 300+i); !res.OK {
				t.Errorf("healthy write %d: %+v", i, res)
			}
		}
		if c.Breaker("good") != nil || len(c.breakers) != 0 {
			t.Errorf("healthy writes made %d breakers", len(c.breakers))
		}
		for i := 0; i < pol.BreakerThreshold; i++ {
			k.Weight(bad, 500)
			if i == 0 && c.Breaker("bad") == nil {
				t.Error("the first failure made no breaker")
			}
			k.Weight(good, 400) // interleaved: a nil lookup must not stick in the key's cache
		}
		br := c.Breaker("bad")
		if br == nil || br.State(eng.Now()) != BreakerOpen {
			t.Fatalf("breaker after %d failures: %+v", pol.BreakerThreshold, br)
		}
		if res := k.Weight(bad, 500); !res.Skipped {
			t.Errorf("open breaker let a write through: %+v", res)
		}
		p.Sleep(pol.BreakerCooldown)
		if br.State(eng.Now()) != BreakerHalfOpen {
			t.Errorf("state %v after the cooldown, want half-open", br.State(eng.Now()))
		}
		bad.SetWeightFailing(false)
		if res := k.Weight(bad, 500); !res.OK || br.State(eng.Now()) != BreakerClosed {
			t.Errorf("probe after heal: %+v, state %v", res, br.State(eng.Now()))
		}
		if c.Breaker("good") != nil {
			t.Error("the healthy target got a breaker along the way")
		}
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if st := k.Stats(); st.BreakerDenied != 1 || st.Failures != pol.BreakerThreshold || c.Totals().BreakerOpens != 1 {
		t.Fatalf("stats %+v, opens %d", st, c.Totals().BreakerOpens)
	}
}
