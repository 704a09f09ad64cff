package device

import (
	"math"
	"testing"

	"tango/internal/blkio"
	"tango/internal/sim"
)

// flatParams returns a device with no latency and no seek thrash so share
// arithmetic can be checked exactly.
func flatParams(peak float64) Params {
	return Params{Name: "flat", PeakBandwidth: peak, MinEfficiency: 1, SeekThrash: 0}
}

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v want %v (tol %v)", msg, got, want, tol)
	}
}

func TestSingleFlowFullBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, flatParams(100))
	cg := blkio.NewCgroup("a")
	var elapsed float64
	eng.Spawn("reader", func(p *sim.Proc) {
		elapsed = d.Read(p, cg, 1000)
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	almost(t, elapsed, 10, 1e-9, "1000 bytes at 100 B/s")
	almost(t, d.TotalBytes(), 1000, 1e-9, "total bytes")
}

func TestEqualWeightsSplitEvenly(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, flatParams(100))
	a, b := blkio.NewCgroup("a"), blkio.NewCgroup("b")
	var ta, tb float64
	eng.Spawn("a", func(p *sim.Proc) { ta = d.Read(p, a, 1000) })
	eng.Spawn("b", func(p *sim.Proc) { tb = d.Read(p, b, 1000) })
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	// Both at 50 B/s for the duration: both finish at t=20.
	almost(t, ta, 20, 1e-9, "flow a")
	almost(t, tb, 20, 1e-9, "flow b")
}

func TestWeightedShares(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, flatParams(100))
	a, b := blkio.NewCgroup("a"), blkio.NewCgroup("b")
	a.SetWeight(300)
	b.SetWeight(100)
	var ta, tb float64
	eng.Spawn("a", func(p *sim.Proc) { ta = d.Read(p, a, 900) })
	eng.Spawn("b", func(p *sim.Proc) { tb = d.Read(p, b, 900) })
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	// a gets 75 B/s, b 25 B/s. a finishes at t=12. Then b has
	// 900-25*12 = 600 bytes left at full 100 B/s -> finishes at t=18.
	almost(t, ta, 12, 1e-9, "heavy flow")
	almost(t, tb, 18, 1e-9, "light flow")
}

func TestStaticWeightDoesNotIsolate(t *testing.T) {
	// The Motivation-2 phenomenon: with equal weights, a target app's
	// share shrinks as more competitors join.
	share := func(nCompetitors int) float64 {
		eng := sim.NewEngine()
		d := New(eng, flatParams(100))
		target := blkio.NewCgroup("target")
		var elapsed float64
		eng.Spawn("target", func(p *sim.Proc) { elapsed = d.Read(p, target, 100) })
		for i := 0; i < nCompetitors; i++ {
			cg := blkio.NewCgroup("noise")
			eng.Spawn("noise", func(p *sim.Proc) { d.Read(p, cg, 1e9) })
		}
		eng.Run(1e9)
		return 100 / elapsed // perceived bandwidth
	}
	if s1, s2 := share(1), share(2); !(s2 < s1) {
		t.Fatalf("share should shrink with competitors: 1->%v 2->%v", s1, s2)
	}
	almost(t, share(1), 50, 1e-6, "one competitor: half")
	almost(t, share(2), 100.0/3, 1e-6, "two competitors: third")
}

func TestThrottleCapsRate(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, flatParams(100))
	cg := blkio.NewCgroup("a")
	cg.SetReadBpsLimit(10)
	var elapsed float64
	eng.Spawn("a", func(p *sim.Proc) { elapsed = d.Read(p, cg, 100) })
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	almost(t, elapsed, 10, 1e-9, "throttled to 10 B/s")
}

func TestThrottleExcessRedistributed(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, flatParams(100))
	a, b := blkio.NewCgroup("a"), blkio.NewCgroup("b")
	a.SetReadBpsLimit(20)
	var ta, tb float64
	eng.Spawn("a", func(p *sim.Proc) { ta = d.Read(p, a, 200) })
	eng.Spawn("b", func(p *sim.Proc) { tb = d.Read(p, b, 800) })
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	// a capped at 20, b gets the remaining 80: both finish at t=10.
	almost(t, ta, 10, 1e-9, "capped flow")
	almost(t, tb, 10, 1e-9, "beneficiary flow")
}

func TestRuntimeWeightChangeReshapesInFlight(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, flatParams(100))
	a, b := blkio.NewCgroup("a"), blkio.NewCgroup("b")
	var ta float64
	eng.Spawn("a", func(p *sim.Proc) { ta = d.Read(p, a, 1000) })
	eng.Spawn("b", func(p *sim.Proc) { d.Read(p, b, 1e6) })
	eng.Spawn("adjuster", func(p *sim.Proc) {
		p.Sleep(10)
		a.SetWeight(900) // 900:100 -> a gets 90 B/s from t=10
	})
	eng.Run(1e6)
	// t<10: a at 50 B/s -> 500 bytes done. After: 500 bytes at 90 B/s
	// -> 5.555..s more.
	almost(t, ta, 10+500.0/90, 1e-6, "reweighted flow")
}

func TestSeekThrashCollapsesAggregate(t *testing.T) {
	eng := sim.NewEngine()
	p := flatParams(100)
	p.SeekThrash = 0.5
	p.MinEfficiency = 0.1
	d := New(eng, p)
	if got := d.EffectiveBandwidth(1); got != 100 {
		t.Fatalf("eff bw(1) = %v", got)
	}
	almost(t, d.EffectiveBandwidth(2), 100/1.5, 1e-9, "two flows")
	almost(t, d.EffectiveBandwidth(3), 100/2.0, 1e-9, "three flows")
	// Floor applies far out.
	almost(t, d.EffectiveBandwidth(1000), 10, 1e-9, "min efficiency floor")
}

func TestRequestLatencyCharged(t *testing.T) {
	eng := sim.NewEngine()
	p := flatParams(100)
	p.RequestLatency = 0.5
	d := New(eng, p)
	cg := blkio.NewCgroup("a")
	var elapsed float64
	eng.Spawn("a", func(p *sim.Proc) { elapsed = d.Read(p, cg, 100) })
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	almost(t, elapsed, 1.5, 1e-9, "latency + stream")
}

func TestZeroByteTransfer(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, flatParams(100))
	cg := blkio.NewCgroup("a")
	var elapsed float64
	eng.Spawn("a", func(p *sim.Proc) { elapsed = d.Read(p, cg, 0) })
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	almost(t, elapsed, 0, 1e-12, "zero-byte read")
}

func TestWriteAccounting(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, flatParams(100))
	cg := blkio.NewCgroup("a")
	eng.Spawn("a", func(p *sim.Proc) {
		d.Write(p, cg, 300)
		d.Read(p, cg, 200)
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	almost(t, cg.BytesWritten(), 300, 0, "bytes written")
	almost(t, cg.BytesRead(), 200, 0, "bytes read")
}

func TestReadWriteThrottledIndependently(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, flatParams(100))
	cg := blkio.NewCgroup("a")
	cg.SetReadBpsLimit(10)
	var tw float64
	eng.Spawn("w", func(p *sim.Proc) { tw = d.Write(p, cg, 450) })
	eng.Spawn("r", func(p *sim.Proc) { d.Read(p, cg, 1000) })
	eng.Run(1e6)
	// Read capped at 10; write group (same weight) takes 45 after
	// water-filling (read r-group and write w-group have equal weight 100;
	// read capped at 10, excess to write: write gets 90).
	almost(t, tw, 5, 1e-9, "write not limited by read throttle")
}

func TestCapacityReservation(t *testing.T) {
	eng := sim.NewEngine()
	p := flatParams(100)
	p.Capacity = 1000
	d := New(eng, p)
	if err := d.Reserve(600); err != nil {
		t.Fatal(err)
	}
	if err := d.Reserve(500); err == nil {
		t.Fatal("over-capacity reservation should fail")
	}
	d.Release(200)
	if err := d.Reserve(500); err != nil {
		t.Fatalf("after release: %v", err)
	}
	almost(t, d.Used(), 900, 0, "used bytes")
}

// TestReserveRejectsNonFinite: a NaN reservation used to pass both checks
// (NaN < 0 and used+NaN > cap are false) and poison Used(), after which any
// reservation fit and the first read panicked on a NaN transfer size.
func TestReserveRejectsNonFinite(t *testing.T) {
	for _, bytes := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		eng := sim.NewEngine()
		p := flatParams(100)
		p.Capacity = 1000
		d := New(eng, p)
		if err := d.Reserve(bytes); err == nil {
			t.Errorf("Reserve(%v) accepted", bytes)
		}
		if d.Used() != 0 {
			t.Errorf("Reserve(%v) left Used() = %v", bytes, d.Used())
		}
		if err := d.Reserve(1e30); err == nil {
			t.Errorf("after Reserve(%v), an over-capacity reservation fits", bytes)
		}
	}
	d := New(sim.NewEngine(), flatParams(100))
	if err := d.Reserve(0); err != nil {
		t.Errorf("Reserve(0): %v", err)
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, flatParams(100))
	cg := blkio.NewCgroup("a")
	eng.Spawn("a", func(p *sim.Proc) {
		p.Sleep(5)
		d.Read(p, cg, 1000) // 10 s busy
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	almost(t, d.BusyTime(), 10, 1e-9, "busy time")
}

// BusyTime only reads: a scenario whose mid-run observer reads it at odd
// instants moves no completion, nor the clock, the byte count or the final
// busy time, by one bit against the same observer reading nothing.
// Integrating the flows at the read would split their steps and round
// differently.
func TestBusyTimeMidRunChangesNothing(t *testing.T) {
	run := func(read bool) (bits []uint64, busy float64) {
		eng := sim.NewEngine()
		d := New(eng, HDD("hdd"))
		for i := range 6 {
			cg := blkio.NewCgroup("cg")
			cg.SetWeight(100 + 150*i)
			eng.Spawn("reader", func(p *sim.Proc) {
				p.Sleep(0.013 * float64(i))
				for range 4 {
					el := d.Read(p, cg, float64(3+i)*MB/3)
					bits = append(bits, math.Float64bits(el), math.Float64bits(eng.Now()))
				}
			})
		}
		eng.Spawn("observer", func(p *sim.Proc) {
			for range 40 {
				p.Sleep(0.0371)
				if read {
					busy = max(busy, d.BusyTime())
				}
			}
		})
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		return append(bits, math.Float64bits(d.TotalBytes()), math.Float64bits(eng.Now()), math.Float64bits(d.BusyTime())), busy
	}
	quiet, _ := run(false)
	read, busy := run(true)
	if busy <= 0 || len(read) != len(quiet) {
		t.Fatalf("observer read busy %v; %d values against %d", busy, len(read), len(quiet))
	}
	for i := range quiet {
		if read[i] != quiet[i] {
			t.Fatalf("value %d moved when BusyTime was read mid-run: %v, unread %v", i,
				math.Float64frombits(read[i]), math.Float64frombits(quiet[i]))
		}
	}
}

func TestDeterministicManyFlows(t *testing.T) {
	run := func() []float64 {
		eng := sim.NewEngine()
		p := flatParams(100)
		p.SeekThrash = 0.3
		p.MinEfficiency = 0.2
		d := New(eng, p)
		out := make([]float64, 8)
		for i := 0; i < 8; i++ {
			i := i
			cg := blkio.NewCgroup("cg")
			cg.SetWeight(100 + 100*i)
			eng.Spawn("f", func(pr *sim.Proc) {
				pr.Sleep(float64(i) * 0.1)
				out[i] = d.Read(pr, cg, float64(1000+i*100))
			})
		}
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic flow %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPresetsValid(t *testing.T) {
	for _, p := range []Params{HDD("h"), SSD("s"), NVMe("n")} {
		if err := p.validate(); err != nil {
			t.Fatalf("preset %q invalid: %v", p.Name, err)
		}
	}
	if !(HDD("h").PeakBandwidth < SSD("s").PeakBandwidth) {
		t.Fatal("HDD should be slower than SSD")
	}
	if !(SSD("s").PeakBandwidth < NVMe("n").PeakBandwidth) {
		t.Fatal("SSD should be slower than NVMe")
	}
}

func TestInvalidParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid params")
		}
	}()
	New(sim.NewEngine(), Params{Name: "bad"})
}
