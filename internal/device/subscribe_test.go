package device

import (
	"math"
	"math/rand"
	"testing"

	"tango/internal/blkio"
	"tango/internal/sim"
)

// A cgroup parameter change must reach exactly the devices the cgroup ever
// had a flow on — the set the per-device subscribed map used to keep. A
// Touch on any other device would integrate its flows at a new instant and
// move floats (the sim_digests pin them). lastUpdate shows who was touched.
func TestWeightChangeReachesOnlyDevicesWithAFlow(t *testing.T) {
	eng := sim.NewEngine()
	issued, refused, idle := New(eng, flatParams(100)), New(eng, flatParams(100)), New(eng, flatParams(100))
	cg, bg := blkio.NewCgroup("cg"), blkio.NewCgroup("bg")
	for _, d := range []*Device{issued, refused, idle} {
		eng.Spawn("bg", func(p *sim.Proc) { d.Read(p, bg, 1e6) }) // keeps Touch from returning early
	}
	eng.Spawn("cg", func(p *sim.Proc) {
		p.Sleep(1)
		issued.Read(p, cg, 10)
		// Requests that end at issue never join the active set, so they
		// never subscribed: zero bytes, an injected read error, a token
		// cancelled before the flow was issued.
		refused.Read(p, cg, 0)
		refused.SetReadError(true)
		if _, err := refused.TryReadCancel(p, cg, 10, nil, 0); err == nil {
			t.Error("injected read error did not fail the read")
		}
		refused.SetReadError(false)
		var tok Token
		if _, err := refused.TryReadCancel(p, cg, 10, &tok, eng.Now()); err == nil {
			t.Error("a read already past its deadline was issued")
		}
		p.Sleep(1)
		before := [3]float64{issued.lastUpdate, refused.lastUpdate, idle.lastUpdate}
		p.Sleep(1)
		cg.SetWeight(700)
		now := eng.Now()
		if issued.lastUpdate != now {
			t.Errorf("the device cg read from was not touched: lastUpdate %v at %v", issued.lastUpdate, now)
		}
		if refused.lastUpdate != before[1] || idle.lastUpdate != before[2] {
			t.Errorf("devices cg never had a flow on were touched: %v, %v (were %v, %v)",
				refused.lastUpdate, idle.lastUpdate, before[1], before[2])
		}
		// Subscribing again at every later flow changes nothing.
		issued.Read(p, cg, 10)
		refused.Read(p, cg, 10)
		cg.SetWeight(300)
		if now = eng.Now(); issued.lastUpdate != now || refused.lastUpdate != now || idle.lastUpdate == now {
			t.Errorf("after a real flow on the second device: %v %v %v at %v",
				issued.lastUpdate, refused.lastUpdate, idle.lastUpdate, now)
		}
	})
	if err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	eng.Close()
}

// Devices are touched in the order the cgroup first had a flow on them,
// whatever order later flows arrive in: each Touch re-arms its device's
// completion timer, so the order decides which of two completions at one
// instant fires first.
func TestWeightChangeTouchesInFirstIssueOrder(t *testing.T) {
	for _, reweigh := range []bool{false, true} {
		eng := sim.NewEngine()
		d1, d2 := New(eng, flatParams(100)), New(eng, flatParams(100))
		cg := blkio.NewCgroup("cg")
		var order []*Device
		eng.Spawn("first-flows", func(p *sim.Proc) {
			d2.Read(p, cg, 10) // d2 first: subscription order is d2, d1
			d1.Read(p, cg, 10)
		})
		for _, d := range []*Device{d1, d2} { // later flows the other way round
			eng.SpawnAt(10, "reader", func(p *sim.Proc) {
				d.Read(p, cg, 1000)
				order = append(order, d)
			})
		}
		if reweigh {
			eng.At(12, func() { cg.SetWeight(900) })
		}
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		want := [2]*Device{d1, d2} // timers armed in issue order
		if reweigh {
			want = [2]*Device{d2, d1} // re-armed in subscription order
		}
		if len(order) != 2 || order[0] != want[0] || order[1] != want[1] || eng.Now() != 20 {
			t.Fatalf("reweigh=%t: completions in the wrong order (or not both at t=20: %v)", reweigh, eng.Now())
		}
	}
}

// The memo grows geometrically now; what it returns is still the formula,
// bit for bit, in any query order, and climbing one flow at a time costs a
// handful of growths instead of one per new count.
func TestEfficiencyMatchesFormula(t *testing.T) {
	for _, p := range []Params{HDD("hdd"), SSD("ssd"), NVMe("nvme"), flatParams(100)} {
		formula := func(n int) float64 {
			if n <= 1 {
				return 1
			}
			return math.Max(1/(1+p.SeekThrash*float64(n-1)), p.MinEfficiency)
		}
		up, shuffled := New(sim.NewEngine(), p), New(sim.NewEngine(), p)
		for n := 0; n <= 1100; n++ {
			if got, want := up.Efficiency(n), formula(n); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Efficiency(%d) = %v, formula %v", p.Name, n, got, want)
			}
		}
		for pass := 0; pass < 2; pass++ { // second pass: every memoized slot
			for _, n := range rand.New(rand.NewSource(1)).Perm(1101) {
				if got, want := shuffled.Efficiency(n), formula(n); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: shuffled Efficiency(%d) = %v, formula %v", p.Name, n, got, want)
				}
			}
		}
	}
	eng := sim.NewEngine()
	build := testing.AllocsPerRun(10, func() { New(eng, HDD("hdd")) })
	climb := testing.AllocsPerRun(10, func() {
		d := New(eng, HDD("hdd"))
		for n := 1; n <= 1100; n++ {
			d.Efficiency(n)
		}
	})
	if climb-build > 12 {
		t.Fatalf("climbing to 1100 flows grew the memo %v times, want <= 12", climb-build)
	}
}
