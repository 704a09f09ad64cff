package objstore

import (
	"math"
	"math/rand"
	"testing"

	"tango/internal/blkio"
	"tango/internal/sim"
)

func TestDefaultOversubscribed(t *testing.T) {
	p := Default(100)
	if p.TotalEgress >= p.NodeBandwidth*100 {
		t.Fatalf("total egress %.0f should be oversubscribed vs %d node frontends of %.0f",
			p.TotalEgress, 100, p.NodeBandwidth)
	}
	if got := Default(1); got.TotalEgress < got.NodeBandwidth {
		t.Fatalf("single-node store must cover one frontend: %.0f < %.0f",
			got.TotalEgress, got.NodeBandwidth)
	}
}

func TestReshareWaterFilling(t *testing.T) {
	p := Default(4)
	p.NodeBandwidth = 100 * mb
	p.TotalEgress = 160 * mb
	s := New(p)
	for i := 0; i < 4; i++ {
		s.Attach(sim.NewEngine())
	}
	// Demands: one small, one medium, two saturating. The small ones are
	// fully satisfied; the leftovers split evenly between the big two.
	grants := s.Reshare([]float64{10 * mb, 30 * mb, 500 * mb, 500 * mb})
	if grants[0] != 10*mb || grants[1] != 30*mb {
		t.Fatalf("small demands must be met exactly: %v", grants)
	}
	want := (160.0 - 10 - 30) / 2 * mb
	if math.Abs(grants[2]-want) > 1 || math.Abs(grants[3]-want) > 1 {
		t.Fatalf("big demands should split the residual (%f each): %v", want, grants)
	}
	var sum float64
	for _, g := range grants {
		sum += g
	}
	if sum > p.TotalEgress+1 {
		t.Fatalf("granted %.0f exceeds total egress %.0f", sum, p.TotalEgress)
	}
}

func TestReshareFloorAndCap(t *testing.T) {
	p := Default(2)
	p.NodeBandwidth = 100 * mb
	p.TotalEgress = 400 * mb
	s := New(p)
	r0 := s.Attach(sim.NewEngine())
	r1 := s.Attach(sim.NewEngine())
	grants := s.Reshare([]float64{0, 1e12})
	if grants[0] != mb { // 1% floor of 100 MB/s
		t.Fatalf("zero demand should get the 1%% floor, got %.0f", grants[0])
	}
	if grants[1] != 100*mb {
		t.Fatalf("huge demand must cap at the frontend: %.0f", grants[1])
	}
	if r0.Granted() != grants[0] || r1.Granted() != grants[1] {
		t.Fatalf("Granted mismatch: %v vs %v/%v", grants, r0.Granted(), r1.Granted())
	}
}

func TestReshareFloorNeverOversubscribes(t *testing.T) {
	// Floors are paid for out of the shared link before water-filling:
	// even when every node is starved and the link cannot cover the
	// nominal 1% floors, the grants shrink to an even split instead of
	// exceeding TotalEgress.
	p := Default(20)
	p.NodeBandwidth = 100 * mb
	p.TotalEgress = 10 * mb // 20 nominal 1% floors would be 20 MB/s
	s := New(p)
	demands := make([]float64, 20)
	for range demands {
		s.Attach(sim.NewEngine())
	}
	grants := s.Reshare(demands)
	var sum float64
	for i, g := range grants {
		if g <= 0 {
			t.Fatalf("in-service node %d granted %v, want a positive floor", i, g)
		}
		sum += g
	}
	if sum > p.TotalEgress+1 {
		t.Fatalf("floors oversubscribe the link: granted %.0f of %.0f", sum, p.TotalEgress)
	}
}

func TestReshareSkipsOutOfServiceNodes(t *testing.T) {
	p := Default(2)
	p.NodeBandwidth = 100 * mb
	p.TotalEgress = 100 * mb
	s := New(p)
	r0 := s.Attach(sim.NewEngine())
	s.Attach(sim.NewEngine())
	s.Reshare([]float64{30 * mb, 30 * mb})
	before := r0.Device().Share()
	// Negative demand marks node 0 out of service: no grant, no floor,
	// and its (abandoned) frontend device is left untouched.
	grants := s.Reshare([]float64{-1, 1e12})
	if grants[0] != 0 {
		t.Fatalf("out-of-service node granted %v", grants[0])
	}
	if got := r0.Device().Share(); got != before {
		t.Fatalf("out-of-service frontend touched: share %v -> %v", before, got)
	}
	if grants[1] != 100*mb {
		t.Fatalf("survivor should absorb the whole link up to its frontend: %v", grants[1])
	}
}

func TestReshareDeterministic(t *testing.T) {
	run := func() []float64 {
		s := New(Default(8))
		demands := make([]float64, 8)
		for i := range demands {
			s.Attach(sim.NewEngine())
			demands[i] = float64(i*37%11) * 13 * mb
		}
		g := s.Reshare(demands)
		out := make([]float64, len(g))
		copy(out, g)
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("grant %d drifted: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRemoteTransferAndHarvest(t *testing.T) {
	eng := sim.NewEngine()
	s := New(Default(1))
	r := s.Attach(eng)
	cg := blkio.NewCgroup("sess0")
	var elapsed float64
	eng.Spawn("get", func(p *sim.Proc) {
		elapsed = r.Device().Read(p, cg, 100*mb)
		r.AccountGet(100 * mb)
		r.Device().Write(p, cg, 10*mb)
		r.AccountPut(10 * mb)
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	// 100 MB at 200 MB/s plus 30 ms request latency.
	want := 100.0/200.0 + 0.030
	if math.Abs(elapsed-want) > 1e-6 {
		t.Fatalf("GET elapsed %.4f, want %.4f", elapsed, want)
	}
	if p := r.Pending(); p.EgressBytes != 100*mb || p.IngressBytes != 10*mb || p.Requests != 2 {
		t.Fatalf("pending ledger %+v", p)
	}
	s.Harvest()
	if r.Pending() != (Stats{}) {
		t.Fatal("harvest must drain the local ledger")
	}
	tot := s.Totals()
	if tot.EgressBytes != 100*mb || tot.IngressBytes != 10*mb || tot.Requests != 2 {
		t.Fatalf("totals %+v", tot)
	}
	if c := s.Cost(); c <= 0 {
		t.Fatalf("cost %.6f", c)
	}
}

func TestReshareSlowsTransfers(t *testing.T) {
	eng := sim.NewEngine()
	p := Default(2)
	s := New(p)
	r := s.Attach(eng)
	s.Attach(sim.NewEngine())
	// Grant this node 25% of its frontend.
	s.Reshare([]float64{50 * mb, 1e12})
	cg := blkio.NewCgroup("sess0")
	var elapsed float64
	eng.Spawn("get", func(pr *sim.Proc) {
		elapsed, _ = r.Device().TryReadCancel(pr, cg, 50*mb, nil, 0)
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := 50.0/50.0 + 0.030 // granted 50 MB/s of the 200 MB/s frontend
	if math.Abs(elapsed-want) > 1e-6 {
		t.Fatalf("throttled GET elapsed %.4f, want %.4f", elapsed, want)
	}
}

func TestDetachPreservesLedger(t *testing.T) {
	s := New(Default(2))
	r0 := s.Attach(sim.NewEngine())
	s.Attach(sim.NewEngine())
	r0.AccountPut(5 * mb)
	fresh := s.Detach(0, sim.NewEngine())
	if fresh.Index() != 0 {
		t.Fatalf("fresh remote index %d", fresh.Index())
	}
	if s.Totals().IngressBytes != 5*mb {
		t.Fatalf("detach must harvest the old remote: %+v", s.Totals())
	}
	if fresh.Device().Share() != 1 {
		t.Fatalf("fresh frontend share %v", fresh.Device().Share())
	}
}

// reshareReference is a naive model of Reshare's contract, rebuilt from
// scratch every round: every in-service node (demand >= 0) holds a floor
// of min(1% of NodeBandwidth, an even split of the link), and the rest of
// the link is a max-min fair water level over what each node wants above
// its floor (demand capped at NodeBandwidth). Each round recomputes the
// level over the nodes not yet satisfied and every grant from nothing;
// it stops when a round satisfies no one.
func reshareReference(p Params, demands []float64) []float64 {
	grants := make([]float64, len(demands))
	live := 0
	for _, d := range demands {
		if d >= 0 {
			live++
		}
	}
	if live == 0 {
		return grants
	}
	floor := min(0.01*p.NodeBandwidth, p.TotalEgress/float64(live))
	want := make([]float64, len(demands))
	satisfied := make([]bool, len(demands))
	for {
		open, taken := 0, 0.0
		for i, d := range demands {
			want[i] = max(min(d, p.NodeBandwidth)-floor, 0)
			switch {
			case d < 0:
			case satisfied[i]:
				taken += want[i]
			default:
				open++
			}
		}
		level := 0.0
		if open > 0 {
			level = max(p.TotalEgress-floor*float64(live)-taken, 0) / float64(open)
		}
		more := false
		for i, d := range demands {
			grants[i] = 0
			if d < 0 {
				continue
			}
			if !satisfied[i] && want[i] <= level {
				satisfied[i], more = true, true
			}
			if satisfied[i] {
				grants[i] = floor + want[i]
			} else {
				grants[i] = floor + level
			}
		}
		if !more {
			return grants
		}
	}
}

// TestReshareMatchesReference drives Reshare and the naive model with 10^4
// seeded demand vectors — out-of-service nodes, floors larger than the
// link, demands above NodeBandwidth, and ties — and checks that the grants
// agree to 1e-9 relative, sum to at most TotalEgress (to rounding), and
// that every live grant lies between the floor and NodeBandwidth and every
// out-of-service grant is 0.
func TestReshareMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 10_000; iter++ {
		n := 1 + rng.Intn(24)
		p := Default(n)
		p.NodeBandwidth = (50 + rng.Float64()*350) * mb
		switch rng.Intn(3) {
		case 0: // floors larger than the link
			p.TotalEgress = p.NodeBandwidth * 0.01 * float64(n) * rng.Float64()
		case 1: // oversubscribed
			p.TotalEgress = p.NodeBandwidth * float64(n) * (0.05 + rng.Float64()*0.9)
		default: // room for every frontend
			p.TotalEgress = p.NodeBandwidth * float64(n) * (1 + rng.Float64())
		}
		if p.TotalEgress <= 0 {
			p.TotalEgress = p.NodeBandwidth * 0.001
		}
		s := New(p)
		eng := sim.NewEngine()
		demands := make([]float64, n)
		for i := range demands {
			s.Attach(eng)
			switch r := rng.Float64(); {
			case r < 0.15:
				demands[i] = -1 // out of service
			case r < 0.3 && i > 0:
				demands[i] = demands[rng.Intn(i)] // a tie
			case r < 0.4:
				demands[i] = 0
			case r < 0.55:
				demands[i] = p.NodeBandwidth * (1 + rng.Float64()*3) // above the frontend
			default:
				demands[i] = p.NodeBandwidth * rng.Float64()
			}
		}
		want := reshareReference(p, demands)
		got := s.Reshare(demands)
		live := 0
		for _, d := range demands {
			if d >= 0 {
				live++
			}
		}
		floor := 0.0
		if live > 0 {
			floor = min(0.01*p.NodeBandwidth, p.TotalEgress/float64(live))
		}
		var sum float64
		for i, g := range got {
			sum += g
			if math.Abs(g-want[i]) > 1e-9*max(math.Abs(g), math.Abs(want[i])) {
				t.Fatalf("iter %d node %d: Reshare %v, reference %v\nparams %+v\ndemands %v", iter, i, g, want[i], p, demands)
			}
			switch {
			case demands[i] < 0 && g != 0:
				t.Fatalf("iter %d: out-of-service node %d granted %v", iter, i, g)
			case demands[i] >= 0 && (g < floor || g > p.NodeBandwidth):
				t.Fatalf("iter %d: node %d grant %v outside [floor %v, frontend %v]", iter, i, g, floor, p.NodeBandwidth)
			}
		}
		// n floors of TotalEgress/n can sum an ulp or two above the link
		// when the floors take all of it, so the bound is held to 1e-12
		// relative rather than exactly.
		if sum > p.TotalEgress*(1+1e-12) {
			t.Fatalf("iter %d: grants sum %v > TotalEgress %v\ndemands %v", iter, sum, p.TotalEgress, demands)
		}
	}
}
