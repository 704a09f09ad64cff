package sim

import (
	"math/rand"
	"testing"
)

// calFire is one firing as TestCalendarMatchesAtCall records it.
type calFire struct {
	id  int
	now float64
}

// calProbe is an item or a plain event of TestCalendarMatchesAtCall: it
// records its firing and, if follow is set, arms a plain event at then.
type calProbe struct {
	id     int
	e      *Engine
	log    *[]calFire
	follow bool
	then   float64
}

func (p *calProbe) Fire() {
	*p.log = append(*p.log, calFire{p.id, p.e.Now()})
	if p.follow {
		p.e.AtCall(p.then, &calProbe{id: -p.id, e: p.e, log: p.log})
	}
}

// calOp is one arming call of a batch: an item for the calendar (item) or
// a plain AtCall made between the adds.
type calOp struct {
	item   bool
	t      float64
	follow bool
	then   float64
}

// TestCalendarMatchesAtCall runs randomized batches through a Calendar on
// one engine and through one AtCall per item on another, and holds the
// two to the same firing order, the same clock at every firing and the
// same Scheduled count. Batches draw their times from a small grid, so
// items tie; some lie in the past and clamp; plain AtCalls are made
// between the adds; and fired items arm events at other items' instants,
// their own and the next one's included.
func TestCalendarMatchesAtCall(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cal, ref := NewEngine(), NewEngine()
	var calLog, refLog []calFire
	var c Calendar
	id := 1
	for batch := 0; batch < 300; batch++ {
		base := cal.Now()
		n := rng.Intn(40)
		ops := make([]calOp, n)
		var times []float64
		for i := range ops {
			// Steps of 0.5 from 2 before the clock (clamped) to 6 after it.
			ops[i] = calOp{item: rng.Intn(4) > 0, t: base + 0.5*float64(rng.Intn(17)-4)}
			times = append(times, max(ops[i].t, base))
		}
		for i := range ops {
			if rng.Intn(3) == 0 {
				ops[i].follow, ops[i].then = true, times[rng.Intn(len(times))]
			}
		}
		// The next item's exact instant, for every item that has one.
		for i := range ops {
			if ops[i].item && i+1 < len(ops) && rng.Intn(2) == 0 {
				ops[i].follow, ops[i].then = true, times[i+1]
			}
		}

		c.Reset(cal, n)
		plain := 0
		for _, op := range ops {
			pc := &calProbe{id: id, e: cal, log: &calLog, follow: op.follow, then: op.then}
			pr := &calProbe{id: id, e: ref, log: &refLog, follow: op.follow, then: op.then}
			id++
			if op.item {
				c.Add(op.t, pc)
			} else {
				cal.AtCall(op.t, pc)
				plain++
			}
			ref.AtCall(op.t, pr)
		}
		c.Arm()
		if items := n - plain; min(items, 1)+plain != cal.Pending() {
			t.Fatalf("batch %d: %d items and %d plain events pend as %d slots", batch, items, plain, cal.Pending())
		}
		if cal.Scheduled() != ref.Scheduled() {
			t.Fatalf("batch %d: armed %d events, AtCall armed %d", batch, cal.Scheduled(), ref.Scheduled())
		}
		until := base + 10 + 0.5*float64(rng.Intn(3))
		if err := cal.Run(until); err != nil {
			t.Fatal(err)
		}
		if err := ref.Run(until); err != nil {
			t.Fatal(err)
		}
		if len(calLog) != len(refLog) {
			t.Fatalf("batch %d: %d firings, AtCall made %d", batch, len(calLog), len(refLog))
		}
		for i := range refLog {
			if calLog[i] != refLog[i] {
				t.Fatalf("batch %d: firing %d is %+v, AtCall fired %+v", batch, i, calLog[i], refLog[i])
			}
		}
		if cal.Scheduled() != ref.Scheduled() || cal.Now() != ref.Now() || cal.Pending() != 0 || ref.Pending() != 0 {
			t.Fatalf("batch %d: scheduled %d/%d, now %v/%v, pending %d/%d", batch,
				cal.Scheduled(), ref.Scheduled(), cal.Now(), ref.Now(), cal.Pending(), ref.Pending())
		}
	}
	if len(refLog) < 3000 {
		t.Fatalf("only %d firings", len(refLog))
	}
}

func TestCalendarResetPanicsWithPendingItems(t *testing.T) {
	e := NewEngine()
	var c Calendar
	c.Reset(e, 2)
	fired := 0
	c.Add(1, funcCall(func() { fired++ }))
	c.Add(2, funcCall(func() { fired++ }))
	c.Arm()
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	if fired != 1 || e.Pending() != 1 {
		t.Fatalf("fired %d, pending %d; want 1 and 1", fired, e.Pending())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reset with an item pending did not panic")
		}
	}()
	c.Reset(e, 2)
}

// calCount is a Callback that counts its firings.
type calCount int

func (n *calCount) Fire() { *n++ }

func TestCalendarSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	var c Calendar
	fired := new(calCount)
	batch := func() {
		c.Reset(e, 100)
		base := e.Now()
		for i := 0; i < 100; i++ {
			c.Add(base+float64((i*37)%100)/10, fired)
		}
		c.Arm()
		if err := e.Run(base + 10); err != nil {
			t.Fatal(err)
		}
	}
	batch() // warm: the items buffer and the one event struct
	if a := testing.AllocsPerRun(50, batch); a != 0 {
		t.Fatalf("Reset/Add/Arm/Run allocates %.1f per batch once warm", a)
	}
	if *fired != 5200 { // AllocsPerRun runs the batch once more before it counts
		t.Fatalf("fired %d items, want 5200", *fired)
	}
}
