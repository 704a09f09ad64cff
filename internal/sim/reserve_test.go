package sim

import (
	"math/rand"
	"testing"
)

// resEngine is one side of TestReservedMatchesAtCall: an engine, the
// firings it logged, the handles its probes armed and the next probe id.
// On the reserving side a zero-delay child is Reserve'd and fired with
// FireReserved at the tail of its parent; on the other it is AtCall(Now()).
type resEngine struct {
	e       *Engine
	reserve bool
	log     []calFire
	timers  []Timer
	nextID  int
}

// resProbe is an event of TestReservedMatchesAtCall. When it fires it logs
// itself and runs a script drawn from its id, so both sides run the same
// one: arm children at the present or later, reserve zero-delay children,
// and stop handles (some armed in this very event at this instant).
type resProbe struct {
	id, depth int
	s         *resEngine
}

func (p *resProbe) Fire() {
	s, e := p.s, p.s.e
	s.log = append(s.log, calFire{p.id, e.Now()})
	if p.depth >= 4 {
		return
	}
	rng := rand.New(rand.NewSource(int64(p.id)))
	type res struct {
		seq int64
		cb  *resProbe
	}
	var held []res
	mine := len(s.timers)
	for range rng.Intn(6) {
		s.nextID++
		child := &resProbe{id: s.nextID, depth: p.depth + 1, s: s}
		switch op := rng.Intn(8); {
		case op < 3:
			s.timers = append(s.timers, e.AtCall(e.Now()+0.5*float64(rng.Intn(4)), child))
		case op < 6 && s.reserve:
			held = append(held, res{e.Reserve(), child})
		case op < 6:
			e.AtCall(e.Now(), child)
		case len(s.timers) > 0:
			i := rng.Intn(len(s.timers))
			if rng.Intn(2) == 0 && mine < len(s.timers) {
				i = mine + rng.Intn(len(s.timers)-mine)
			}
			s.timers[i].Stop()
		}
	}
	for _, r := range held {
		e.FireReserved(r.seq, r.cb)
	}
}

// TestReservedMatchesAtCall runs random arming programs twice — zero-delay
// children reserved and fired at their parent's tail on one engine, armed
// with AtCall(Now()) on the other — and holds the two to the same firing
// order, the same clock at every firing, and the same Scheduled and
// Pending after every Run. Children land at their parent's instant or on a
// small grid after it, so instants tie; stopped events leave tombstones,
// some queued ahead of a reservation at the same instant.
func TestReservedMatchesAtCall(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	res := &resEngine{e: NewEngine(), reserve: true}
	ref := &resEngine{e: NewEngine()}
	reserved := 0
	for batch := 0; batch < 300; batch++ {
		base := res.e.Now()
		for range 1 + rng.Intn(8) {
			at := base + 0.25*float64(rng.Intn(24))
			for _, s := range []*resEngine{res, ref} {
				s.nextID += 1000 // roots draw scripts of their own
				s.timers = append(s.timers, s.e.AtCall(at, &resProbe{id: s.nextID, s: s}))
			}
		}
		until := base + 0.5*float64(rng.Intn(16))
		for _, s := range []*resEngine{res, ref} {
			if err := s.e.Run(until); err != nil {
				t.Fatal(err)
			}
		}
		if len(res.log) != len(ref.log) {
			t.Fatalf("batch %d: %d firings, AtCall made %d", batch, len(res.log), len(ref.log))
		}
		for i := range ref.log {
			if res.log[i] != ref.log[i] {
				t.Fatalf("batch %d: firing %d is %+v, AtCall fired %+v", batch, i, res.log[i], ref.log[i])
			}
		}
		if res.e.Scheduled() != ref.e.Scheduled() || res.e.Now() != ref.e.Now() || res.e.Pending() != ref.e.Pending() {
			t.Fatalf("batch %d: scheduled %d/%d, now %v/%v, pending %d/%d", batch,
				res.e.Scheduled(), ref.e.Scheduled(), res.e.Now(), ref.e.Now(), res.e.Pending(), ref.e.Pending())
		}
		_, q, _, _ := res.e.Work()
		_, rq, _, _ := ref.e.Work()
		reserved = int(rq - q)
	}
	if len(ref.log) < 5000 || reserved < 1000 { // 26,705 and 1,248 at seed 11
		t.Fatalf("only %d firings, %d of them reserved events fired at once", len(ref.log), reserved)
	}
}

// A reserved event after a process has failed is queued, as the event
// AtCall would have queued is never popped: neither fires, both pend.
func TestReservedAfterFailureIsQueued(t *testing.T) {
	for _, reserve := range []bool{true, false} {
		e := NewEngine()
		fired := false
		p := e.SpawnAt(10, "failing", func(*Proc) { panic("boom") })
		then := funcCall(func() { fired = true })
		e.At(1, func() {
			if !reserve {
				e.AtCall(e.Now(), p)
				e.AtCall(e.Now(), then)
				return
			}
			first, second := e.Reserve(), e.Reserve()
			e.FireReserved(first, p) // runs the process at once: it fails
			e.FireReserved(second, then)
		})
		if err := e.RunAll(); err == nil || fired || e.Pending() != 2 || e.Scheduled() != 4 {
			t.Fatalf("reserve=%v: err %v, fired %v, pending %d, scheduled %d; want an error, no firing, 2 and 4",
				reserve, err, fired, e.Pending(), e.Scheduled())
		}
	}
}

// Stop on a handle whose struct the heap tail gave to a later event is a
// no-op, Stop on the handle of the event being fired is false, and once
// warm, pushing and popping allocates nothing.
func TestHeapTailReuse(t *testing.T) {
	e := NewEngine()
	var self Timer
	selfStop := true
	self = e.At(1, func() { selfStop = self.Stop() })
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	fired := false
	later := e.At(2, func() { fired = true })
	if later.ev != self.ev {
		t.Fatal("the next push did not reuse the struct the last pop left")
	}
	if selfStop || self.Stop() {
		t.Fatal("Stop on the handle of a fired event reported it pending")
	}
	if err := e.RunAll(); err != nil || !fired {
		t.Fatalf("the event in the reused struct did not fire (err %v)", err)
	}
	cb := &countCallback{}
	round := func() {
		for i := range 64 {
			e.AtCall(e.Now()+float64(i%7), cb)
		}
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if a := testing.AllocsPerRun(20, round); a != 0 {
		t.Fatalf("a warm round of 64 pushes and pops allocates %v", a)
	}
}
