package coordinator

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tango/internal/blkio"
	"tango/internal/trace"
)

func TestAttachDetach(t *testing.T) {
	a := New()
	cg := blkio.NewCgroup("s1")
	if err := a.Attach("s1", cg); err != nil {
		t.Fatal(err)
	}
	if err := a.Attach("s1", cg); err == nil {
		t.Fatal("duplicate attach accepted")
	}
	if _, err := a.Request("s1", 500); err != nil {
		t.Fatal(err)
	}
	a.Detach("s1")
	if cg.Weight() != blkio.DefaultWeight {
		t.Fatalf("weight after detach = %d", cg.Weight())
	}
	if _, err := a.Request("s1", 500); err == nil {
		t.Fatal("request after detach accepted")
	}
}

func TestSingleSessionScalesToMax(t *testing.T) {
	a := New()
	cg := blkio.NewCgroup("s1")
	if err := a.Attach("s1", cg); err != nil {
		t.Fatal(err)
	}
	granted, err := a.Request("s1", 300)
	if err != nil {
		t.Fatal(err)
	}
	// Alone, the session's desired weight is the largest: it gets the
	// full range.
	if granted != blkio.MaxWeight {
		t.Fatalf("granted = %d, want %d", granted, blkio.MaxWeight)
	}
	if cg.Weight() != blkio.MaxWeight {
		t.Fatalf("cgroup weight = %d", cg.Weight())
	}
}

func TestRatiosPreservedAcrossSessions(t *testing.T) {
	a := New()
	hi, lo := blkio.NewCgroup("hi"), blkio.NewCgroup("lo")
	if err := a.Attach("hi", hi); err != nil {
		t.Fatal(err)
	}
	if err := a.Attach("lo", lo); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Request("hi", 600); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Request("lo", 150); err != nil {
		t.Fatal(err)
	}
	// hi scales to 1000; lo keeps the 4:1 ratio -> 250.
	if hi.Weight() != 1000 || lo.Weight() != 250 {
		t.Fatalf("weights = %d, %d", hi.Weight(), lo.Weight())
	}
	if a.Active() != 2 {
		t.Fatalf("active = %d", a.Active())
	}
	// Releasing hi re-scales lo to the full range.
	a.Release("hi")
	if hi.Weight() != blkio.DefaultWeight {
		t.Fatalf("released weight = %d", hi.Weight())
	}
	if lo.Weight() != blkio.MaxWeight {
		t.Fatalf("remaining session weight = %d", lo.Weight())
	}
	if a.Active() != 1 {
		t.Fatalf("active = %d", a.Active())
	}
}

func TestRatioFloorClamped(t *testing.T) {
	a := New()
	hi, lo := blkio.NewCgroup("hi"), blkio.NewCgroup("lo")
	if err := a.Attach("hi", hi); err != nil {
		t.Fatal(err)
	}
	if err := a.Attach("lo", lo); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Request("hi", 1000); err != nil {
		t.Fatal(err)
	}
	granted, err := a.Request("lo", 100) // would scale to 100 exactly
	if err != nil {
		t.Fatal(err)
	}
	if granted < blkio.MinWeight || granted > blkio.MaxWeight {
		t.Fatalf("granted = %d", granted)
	}
}

func TestReleaseUnknownIsNoop(t *testing.T) {
	a := New()
	a.Release("ghost") // must not panic
	a.Detach("ghost")
	if a.Active() != 0 {
		t.Fatal("phantom active session")
	}
}

// TestDetachRebalancesRemaining covers a session detaching while others
// are mid-retrieval: without the rebalance in Detach, the departed
// session's large desired weight would keep the survivors' grants scaled
// down until their next Request.
func TestDetachRebalancesRemaining(t *testing.T) {
	a := New()
	big, small := blkio.NewCgroup("big"), blkio.NewCgroup("small")
	if err := a.Attach("big", big); err != nil {
		t.Fatal(err)
	}
	if err := a.Attach("small", small); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Request("big", 900); err != nil {
		t.Fatal(err)
	}
	granted, err := a.Request("small", 300)
	if err != nil {
		t.Fatal(err)
	}
	if granted >= blkio.MaxWeight/2 {
		t.Fatalf("small granted %d while big active", granted)
	}
	a.Detach("big")
	if big.Weight() != blkio.DefaultWeight {
		t.Fatalf("detached weight = %d", big.Weight())
	}
	// The surviving retrieval's desired weight is now the largest: it
	// must have been rescaled to the top of the range immediately.
	if small.Weight() != blkio.MaxWeight {
		t.Fatalf("survivor weight = %d, want %d", small.Weight(), blkio.MaxWeight)
	}
	if a.Active() != 1 {
		t.Fatalf("active = %d", a.Active())
	}
}

// TestDetachToleratesWeightFault: reverting the departing session's
// weight can itself fail (injected weight-write fault); Detach must not
// panic, must still rebalance survivors, and the stale weight is
// tolerated.
func TestDetachToleratesWeightFault(t *testing.T) {
	a := New()
	rec := trace.New(64)
	a.SetTrace(rec, func() float64 { return 7 })
	big, small := blkio.NewCgroup("big"), blkio.NewCgroup("small")
	if err := a.Attach("big", big); err != nil {
		t.Fatal(err)
	}
	if err := a.Attach("small", small); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Request("big", 900); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Request("small", 300); err != nil {
		t.Fatal(err)
	}
	before := big.Weight()
	big.SetWeightFailing(true)
	a.Detach("big")
	if big.Weight() != before {
		t.Fatalf("faulted revert changed weight to %d", big.Weight())
	}
	if small.Weight() != blkio.MaxWeight {
		t.Fatalf("survivor weight = %d", small.Weight())
	}
	if len(rec.Filter(trace.KindRecover)) == 0 {
		t.Fatal("tolerated revert not recorded")
	}
}

// TestApplyReappliesAfterWeightFault: a grant that could not be written
// while the cgroup's weight writes were failing is re-applied by the
// next rebalance after the fault clears, and both the toleration and the
// recovery are recorded.
func TestApplyReappliesAfterWeightFault(t *testing.T) {
	a := New()
	rec := trace.New(64)
	a.SetTrace(rec, func() float64 { return 7 })
	cg := blkio.NewCgroup("s1")
	if err := a.Attach("s1", cg); err != nil {
		t.Fatal(err)
	}
	cg.SetWeightFailing(true)
	granted, err := a.Request("s1", 300)
	if err != nil {
		t.Fatal(err)
	}
	if granted != blkio.MaxWeight {
		t.Fatalf("granted = %d", granted)
	}
	if cg.Weight() == blkio.MaxWeight {
		t.Fatal("faulted write landed")
	}
	if len(rec.Filter(trace.KindRecover)) == 0 {
		t.Fatal("tolerated write not recorded")
	}
	cg.SetWeightFailing(false)
	// Same desired weight: without the pending flag the rebalance would
	// skip the unchanged grant and the cgroup would stay at the default.
	if _, err := a.Request("s1", 300); err != nil {
		t.Fatal(err)
	}
	if cg.Weight() != blkio.MaxWeight {
		t.Fatalf("weight after fault cleared = %d, want %d", cg.Weight(), blkio.MaxWeight)
	}
	found := false
	for _, ev := range rec.Filter(trace.KindRecover) {
		if strings.Contains(ev.Msg(), "re-applied") {
			found = true
		}
	}
	if !found {
		t.Fatal("re-apply not recorded")
	}
}

// TestIncrementalMatchesSweep checks the incremental allocator against a
// naive O(sessions) model: on every Request, Release and Detach it
// rescales every active session, and each write lands unless the cgroup's
// weight writes are failing. 10⁴ seeded sequences mix Attach, Detach,
// Request, Release and fault toggles over up to eight sessions, each with
// one cgroup that outlives Detach and re-Attach. After every allocator
// call it checks Active(), the scale (the largest active desired weight)
// and every cgroup's weight against the model, and two rules directly:
//   - after a rebalancing call, every active session whose cgroup is not
//     failing carries clamp(desired·MaxWeight/maxDesired). Attach does not
//     rebalance, so a write that failed before it is still pending after;
//   - every idle or detached cgroup is at DefaultWeight unless its last
//     revert failed. That stale weight is a known defect: nothing
//     re-applies the revert while the session stays idle, only its own
//     next Request or Release does.
func TestIncrementalMatchesSweep(t *testing.T) {
	type session struct {
		name             string
		cg               *blkio.Cgroup
		attached, active bool
		desired          int
		w                int  // the weight the model expects the cgroup to carry
		stale            bool // its last revert failed
	}
	names := []string{"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7"}
	rng := rand.New(rand.NewSource(3))
	staleSeen := 0
	for seq := 0; seq < 10_000; seq++ {
		a := New()
		ss := make([]*session, 1+rng.Intn(len(names)))
		for i := range ss {
			ss[i] = &session{name: names[i], cg: blkio.NewCgroup(names[i]), w: blkio.DefaultWeight}
		}
		scale := func() int {
			m := 0
			for _, s := range ss {
				if s.active && s.desired > m {
					m = s.desired
				}
			}
			return m
		}
		sweep := func() {
			m := scale()
			for _, s := range ss {
				if s.active && !s.cg.WeightFailing() {
					s.w = blkio.ClampWeight(s.desired * blkio.MaxWeight / m)
				}
			}
		}
		revert := func(s *session) {
			s.stale = s.cg.WeightFailing()
			if !s.stale {
				s.w = blkio.DefaultWeight
			}
		}
		for op := 0; op < 40; op++ {
			s := ss[rng.Intn(len(ss))]
			call := ""
			switch k := rng.Intn(12); {
			case k < 2:
				call = "Attach"
				if err := a.Attach(s.name, s.cg); (err == nil) == s.attached {
					t.Fatalf("seq %d op %d: Attach(%s) = %v, attached %v", seq, op, s.name, err, s.attached)
				}
				s.attached = true
			case k < 3:
				call = "Detach"
				a.Detach(s.name)
				wasAttached := s.attached
				s.attached, s.active = false, false
				sweep()
				if wasAttached {
					revert(s)
				}
			case k < 7:
				call = "Request"
				d := 50 + rng.Intn(1001)
				g, err := a.Request(s.name, d)
				if !s.attached {
					if err == nil {
						t.Fatalf("seq %d op %d: Request(%s) accepted while detached", seq, op, s.name)
					}
					continue
				}
				s.active, s.desired = true, blkio.ClampWeight(d)
				sweep()
				if want := blkio.ClampWeight(s.desired * blkio.MaxWeight / scale()); err != nil || g != want {
					t.Fatalf("seq %d op %d: Request(%s, %d) = %d, %v, want %d", seq, op, s.name, d, g, err, want)
				}
			case k < 9:
				call = "Release"
				a.Release(s.name)
				s.active = false
				sweep()
				if s.attached {
					revert(s)
				}
			default:
				s.cg.SetWeightFailing(rng.Intn(3) == 0)
				continue
			}
			nActive, max := 0, scale()
			for _, x := range ss {
				if x.active {
					nActive++
				}
			}
			if a.Active() != nActive || a.maxDesired != max {
				t.Fatalf("seq %d op %d %s(%s): Active() = %d, scale %d; model %d, %d", seq, op, call, s.name, a.Active(), a.maxDesired, nActive, max)
			}
			for _, x := range ss {
				got := x.cg.Weight()
				if got != x.w {
					t.Fatalf("seq %d op %d %s(%s): %s weight = %d, model %d (%+v)", seq, op, call, s.name, x.name, got, x.w, *x)
				}
				switch {
				case x.active && call != "Attach" && !x.cg.WeightFailing():
					if want := blkio.ClampWeight(x.desired * blkio.MaxWeight / max); got != want {
						t.Fatalf("seq %d op %d %s(%s): active %s weight = %d, want %d", seq, op, call, s.name, x.name, got, want)
					}
				case !x.active && got != blkio.DefaultWeight:
					if !x.stale {
						t.Fatalf("seq %d op %d %s(%s): idle %s weight = %d, want the default", seq, op, call, s.name, x.name, got)
					}
					staleSeen++
				}
			}
		}
	}
	if staleSeen == 0 {
		t.Fatal("no sequence left an idle session at a stale weight: the failed-revert case went untested")
	}
}

// TestRequestZeroAlloc guards the coordinator fast path: with the scale
// steady and no faults outstanding, a request/release cycle performs no
// heap allocation.
func TestRequestZeroAlloc(t *testing.T) {
	a := New()
	names := []string{"z0", "z1", "z2", "z3"}
	for _, n := range names {
		if err := a.Attach(n, blkio.NewCgroup(n)); err != nil {
			t.Fatal(err)
		}
	}
	// An anchor session pins the scale so the cycling sessions stay on
	// the O(1) path; one full cycle warms the targets scratch.
	if _, err := a.Request("z0", 1000); err != nil {
		t.Fatal(err)
	}
	for _, n := range names[1:] {
		if _, err := a.Request(n, 400); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		n := names[1+i%3]
		if _, err := a.Request(n, 300+100*(i%5)); err != nil {
			t.Fatal(err)
		}
		a.Release(n)
		i++
	})
	if allocs != 0 {
		t.Fatalf("request/release allocates %.1f per run, want 0", allocs)
	}
}

// TestActiveCountSurvivesChurn: the incrementally maintained active
// count stays exact through request/re-request/release/detach churn.
func TestActiveCountSurvivesChurn(t *testing.T) {
	a := New()
	for _, n := range []string{"a", "b", "c"} {
		if err := a.Attach(n, blkio.NewCgroup(n)); err != nil {
			t.Fatal(err)
		}
	}
	mustActive := func(want int) {
		t.Helper()
		if got := a.Active(); got != want {
			t.Fatalf("Active() = %d, want %d", got, want)
		}
	}
	mustActive(0)
	a.Request("a", 500)
	a.Request("a", 700) // re-request: still one active session
	mustActive(1)
	a.Request("b", 200)
	a.Request("c", 900)
	mustActive(3)
	a.Release("b")
	a.Release("b") // double release: no drift
	mustActive(2)
	a.Detach("c") // detach while active
	mustActive(1)
	a.Release("a")
	mustActive(0)
}

// TestAttachedEntriesStayDistinct: Attach hands out slots of allocator-held
// chunks. A thousand sessions attached to each of two allocators
// (interleaved, so a shared chunk would alternate owners) must each keep
// their own grant across every chunk boundary, and a detached name must
// attach again as a fresh entry.
func TestAttachedEntriesStayDistinct(t *testing.T) {
	const n = 1000
	allocs := [2]*Allocator{New(), New()}
	var cgs [2][]*blkio.Cgroup
	name := func(i int) string { return fmt.Sprintf("s%d", i) }
	// Increasing in i, so session n-1 sets each allocator's scale.
	desired := func(i, k int) int { return blkio.MinWeight + (i+k)*(blkio.MaxWeight-blkio.MinWeight)/n }
	for i := 0; i < n; i++ {
		for k, a := range allocs {
			cg := blkio.NewCgroup(name(i))
			if err := a.Attach(name(i), cg); err != nil {
				t.Fatal(err)
			}
			cgs[k] = append(cgs[k], cg)
		}
	}
	seen := map[*entry]bool{}
	for k, a := range allocs {
		for _, e := range a.list {
			if seen[e] {
				t.Fatalf("allocator %d: entry %q handed out twice", k, e.name)
			}
			seen[e] = true
		}
		for i := n - 1; i >= 0; i-- {
			if _, err := a.Request(name(i), desired(i, k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k, a := range allocs {
		max := desired(n-1, k)
		for i, cg := range cgs[k] {
			e := a.entries[name(i)]
			want := blkio.ClampWeight(desired(i, k) * blkio.MaxWeight / max)
			if e.cg != cg || e.name != name(i) || e.desired != desired(i, k) || cg.Weight() != want {
				t.Fatalf("allocator %d session %d: entry %+v, cgroup weight %d, want %d", k, i, *e, cg.Weight(), want)
			}
		}
	}
	a := allocs[0]
	old := a.entries[name(7)]
	a.Detach(name(7))
	if cgs[0][7].Weight() != blkio.DefaultWeight || a.Active() != n-1 {
		t.Fatalf("after Detach: weight %d, active %d", cgs[0][7].Weight(), a.Active())
	}
	if err := a.Attach(name(7), cgs[0][7]); err != nil {
		t.Fatal(err)
	}
	if e := a.entries[name(7)]; e == old || seen[e] || e.active || e.desired != 0 {
		t.Fatalf("re-Attach reused a live slot or kept state: %+v", *e)
	}
	if g, err := a.Request(name(7), blkio.MaxWeight); err != nil || g != blkio.MaxWeight {
		t.Fatalf("request after re-Attach: %d, %v", g, err)
	}
}
