package resil

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tango/internal/blkio"
	"tango/internal/device"
	"tango/internal/sim"
	"tango/internal/trace"
)

// hedgedReadReference is HedgedRead as it was while a hedge leg was a
// process: two spawned legs joined by a count the caller suspends on (the
// sim.WaitGroup it used, inlined), a deadline timer armed and stopped per
// leg. Kept as it was otherwise (the token's deadline argument is new, and
// unused) as the reference TestHedgedReadMatchesReference
// compares the transfer-based race with.
func hedgedReadReference(k *Key, p *sim.Proc, fast, slow *device.Device, cg *blkio.Cgroup, bytes float64) HedgeResult {
	var res HedgeResult
	c := k.c
	if !c.shouldHedge(fast, bytes) {
		return res
	}
	now := c.eng.Now()
	if !k.takeToken(now) {
		k.stats.BudgetDenied++
		c.emit(trace.KindBudget, "deny key=%s: no budget for hedge leg", k.pol.Name)
		return res
	}
	k.stats.Ops++
	k.stats.Hedges++
	k.stats.Attempts += 2
	res.Hedged = true
	if c.rec != nil {
		c.emit(trace.KindHedge, "launch key=%s fast=%s slow=%s bytes=%.0f",
			k.pol.Name, fast.Name(), slow.Name(), bytes)
	}

	deadline := k.pol.TimeoutFloor + bytes/k.pol.TimeoutMinBW
	var fastTok, slowTok device.Token
	winner := -1
	legs := 0
	spawnLeg := func(name string, fn func(hp *sim.Proc)) {
		legs++
		c.eng.Spawn(name, func(hp *sim.Proc) {
			fn(hp)
			if legs--; legs == 0 {
				c.eng.Wake(p)
			}
		})
	}
	spawnLeg("hedge-fast", func(hp *sim.Proc) {
		tm := c.eng.At(c.eng.Now()+deadline, func() { fastTok.Cancel() })
		_, err := fast.TryReadCancel(hp, cg, bytes, &fastTok, 0)
		tm.Stop()
		if err == nil && winner < 0 {
			winner = 0
			slowTok.Cancel()
		}
	})
	spawnLeg("hedge-slow", func(hp *sim.Proc) {
		tm := c.eng.At(c.eng.Now()+deadline, func() { slowTok.Cancel() })
		_, err := slow.TryReadCancel(hp, cg, bytes, &slowTok, 0)
		tm.Stop()
		if err == nil && winner < 0 {
			winner = 1
			fastTok.Cancel()
		}
	})
	for legs > 0 {
		p.Suspend()
	}

	res.Elapsed = c.eng.Now() - now
	res.FastMoved = fastTok.Moved()
	res.SlowMoved = slowTok.Moved()
	if winner < 0 {
		k.stats.Degraded++
		k.stats.WastedBytes += res.FastMoved + res.SlowMoved
		c.emit(trace.KindHedge, "lose key=%s: both legs failed, falling back", k.pol.Name)
		return res
	}
	res.OK = true
	res.FastWon = winner == 0
	winDev, wasted := slow, res.FastMoved
	if res.FastWon {
		k.stats.HedgeFastWins++
		winDev, wasted = fast, res.SlowMoved
	} else {
		k.stats.HedgeSlowWins++
	}
	k.stats.WastedBytes += wasted
	if c.rec != nil {
		c.emit(trace.KindHedge, "win key=%s winner=%s wasted=%.0f elapsed=%.3gs",
			k.pol.Name, winDev.Name(), wasted, res.Elapsed)
	}
	return res
}

// hedgeScript is one seeded scenario: a reader issuing hedged reads back
// to back against a fast and a slow device while fault windows open and
// close on both and a writer competes for the slow tier.
type hedgeScript struct {
	fastP, slowP device.Params
	reads        []float64 // bytes per hedged read
	gaps         []float64 // sleep before each read
	faults       []hedgeFault
	writerAt     float64 // <0: no competing writer
	writerBytes  float64
	writerWeight int
}

type hedgeFault struct {
	at, dur  float64
	slowTier bool
	bw, lat  float64
	readErr  bool
}

const mib = 1024 * 1024

func randomHedgeScript(rng *rand.Rand) hedgeScript {
	fastP := flatParams("ssd", (100+rng.Float64()*900)*mib)
	fastP.RequestLatency = rng.Float64() * 0.001
	slowP := device.Params{Name: "hdd", PeakBandwidth: (10 + rng.Float64()*150) * mib,
		SeekThrash: rng.Float64() * 0.4, MinEfficiency: 0.2 + rng.Float64()*0.5}
	// A long slow-tier latency is what leaves the loser inside its
	// request-latency phase when the winner lands.
	slowP.RequestLatency = []float64{0, 0.008, 0.2, 1.5}[rng.Intn(4)]
	sc := hedgeScript{fastP: fastP, slowP: slowP, writerAt: -1}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		sc.reads = append(sc.reads, (4+rng.Float64()*60)*mib)
		sc.gaps = append(sc.gaps, rng.Float64()*3)
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		f := hedgeFault{at: rng.Float64() * 8, dur: 0.05 + rng.Float64()*40, slowTier: rng.Intn(2) == 0, bw: 1}
		switch rng.Intn(4) {
		case 0: // stuck: only the deadline ends the leg
			f.bw = 0
		case 1:
			f.bw = 0.01 + rng.Float64()*0.5
		case 2: // read-error window, possibly opening mid-race
			f.readErr = true
		case 3:
			f.lat = rng.Float64() * 2
		}
		if rng.Intn(3) == 0 {
			f.at = 0 // in force when the first race starts
		}
		sc.faults = append(sc.faults, f)
	}
	if rng.Intn(2) == 0 {
		sc.writerAt = rng.Float64() * 4
		sc.writerBytes = (50 + rng.Float64()*2000) * mib
		sc.writerWeight = 100 + rng.Intn(900)
	}
	return sc
}

type hedgeFn func(k *Key, p *sim.Proc, fast, slow *device.Device, cg *blkio.Cgroup, bytes float64) HedgeResult

// hedgeWaiter runs a Hedge for a process blocked on it, as the blocking
// HedgedRead did: the last leg to end wakes the process, which then takes
// the result. When both legs end at issue, done is told inside Start and
// the process never parks.
type hedgeWaiter struct {
	h       Hedge
	p       *sim.Proc
	waiting bool
}

func (w *hedgeWaiter) TransferDone(*device.Token, error) {
	w.waiting = false
	w.p.Engine().Wake(w.p)
}

func (w *hedgeWaiter) read(k *Key, fast, slow *device.Device, cg *blkio.Cgroup, bytes float64) HedgeResult {
	w.waiting = true
	if !w.h.Start(k, fast, slow, cg, bytes, w) {
		return HedgeResult{}
	}
	for w.waiting {
		w.p.Suspend()
	}
	return w.h.Result()
}

// hedgedRead is one hedged read by p.
func hedgedRead(k *Key, p *sim.Proc, fast, slow *device.Device, cg *blkio.Cgroup, bytes float64) HedgeResult {
	w := &hedgeWaiter{p: p}
	return w.read(k, fast, slow, cg, bytes)
}

// emit is the trace call the references make.
func (c *Controller) emit(kind, format string, args ...any) {
	c.rec.Emit(c.eng.Now(), source, kind, format, args...)
}

func bits(v float64) string { return fmt.Sprintf("%x", math.Float64bits(v)) }

// play runs the script with one implementation and fingerprints every
// observable — results, key counters, both devices, the cgroups, the
// trace and the clock — with floats as bit patterns.
func (sc hedgeScript) play(t *testing.T, hedge hedgeFn) (fp string, results []HedgeResult) {
	t.Helper()
	eng := sim.NewEngine()
	rec := trace.New(4096)
	c := New(eng, Options{Hedge: HedgeConfig{Enabled: true}, Trace: rec})
	c.SetForecast(func() (next, peak float64, ok bool) { return 10, 100, true })
	fast, slow := device.New(eng, sc.fastP), device.New(eng, sc.slowP)
	cg, wcg := blkio.NewCgroup("analytics"), blkio.NewCgroup("writer")
	k := c.Key(KeyStagingReadHedge)
	eng.Spawn("reader", func(p *sim.Proc) {
		for i, bytes := range sc.reads {
			p.Sleep(sc.gaps[i])
			results = append(results, hedge(k, p, fast, slow, cg, bytes))
		}
	})
	if sc.writerAt >= 0 {
		wcg.SetWeight(sc.writerWeight)
		eng.SpawnAt(sc.writerAt, "writer", func(p *sim.Proc) { slow.Write(p, wcg, sc.writerBytes) })
	}
	// Overlapping windows on one device simply overwrite each other; the
	// point is that both implementations see the same sequence of states.
	for _, f := range sc.faults {
		f := f
		dev := fast
		if f.slowTier {
			dev = slow
		}
		eng.At(f.at, func() {
			dev.SetFault(f.bw, f.lat)
			dev.SetReadError(f.readErr)
		})
		eng.At(f.at+f.dur, func() {
			dev.ClearFault()
			dev.SetReadError(false)
		})
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for i, r := range results {
		fmt.Fprintf(&out, "read%d ok=%t hedged=%t fastwon=%t el=%s fast=%s slow=%s\n",
			i, r.OK, r.Hedged, r.FastWon, bits(r.Elapsed), bits(r.FastMoved), bits(r.SlowMoved))
	}
	st := k.Stats()
	wasted := st.WastedBytes
	st.WastedBytes = 0
	fmt.Fprintf(&out, "stats %+v wasted=%s totals %+v\n", st, bits(wasted), c.Totals())
	for _, d := range []*device.Device{fast, slow} {
		fmt.Fprintf(&out, "%s total=%s busy=%s active=%d\n", d.Name(), bits(d.TotalBytes()), bits(d.BusyTime()), d.ActiveFlows())
	}
	fmt.Fprintf(&out, "cg read=%s writer written=%s now=%s live=%d\n", bits(cg.BytesRead()), bits(wcg.BytesWritten()), bits(eng.Now()), eng.LiveProcs())
	for _, ev := range rec.Events() {
		fmt.Fprintf(&out, "%s %s %s %s\n", bits(ev.T), ev.Source, ev.Kind, ev.Msg())
	}
	return out.String(), results
}

// TestHedgedReadMatchesReference drives the transfer-based race and the
// process-based reference over seeded scenarios and requires identical
// bits, then checks the sweep reached every way a race can end.
func TestHedgedReadMatchesReference(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(1); seed <= 400; seed++ {
		sc := randomHedgeScript(rand.New(rand.NewSource(seed)))
		got, results := sc.play(t, hedgedRead)
		want, _ := sc.play(t, hedgedReadReference)
		if got != want {
			t.Fatalf("seed %d: race differs from the process reference\n--- transfers\n%s--- processes\n%s", seed, got, want)
		}
		for _, r := range results {
			loser := r.SlowMoved
			if !r.FastWon {
				loser = r.FastMoved
			}
			switch {
			case !r.Hedged:
				seen["not hedged"]++
			case !r.OK:
				seen["both fail"]++
			case r.FastWon:
				seen["fast wins"]++
			default:
				seen["slow wins"]++
			}
			if r.OK && loser == 0 {
				seen["loser moved nothing (latency phase or failed)"]++
			} else if r.OK {
				seen["loser cancelled mid-flight"]++
			}
		}
		if sc.writerAt >= 0 {
			seen["competing writer"]++
		}
	}
	for _, ending := range []string{"both fail", "fast wins", "slow wins", "competing writer",
		"loser moved nothing (latency phase or failed)", "loser cancelled mid-flight"} {
		if seen[ending] < 10 {
			t.Errorf("%q reached %d times over the sweep", ending, seen[ending])
		}
	}
	t.Logf("endings: %v", seen)
}

// TestHedgeLegEndsAtIssue: a leg that fails at issue — a read error on a
// tier with no request latency — ends inside Start, which reports it only
// once both legs are issued. The race then ends as the process reference's
// does, bit for bit: the slow leg still runs and wins, or, when it fails
// at issue too, done is told inside Start and the reader falls back.
func TestHedgeLegEndsAtIssue(t *testing.T) {
	const bytes = 16 * mib
	for _, c := range []struct {
		name      string
		slowP     device.Params
		slowFails bool
	}{
		{"fast leg fails at issue", device.HDD("hdd"), false},
		{"both legs fail at issue", flatParams("hdd", 100*mib), true},
	} {
		sc := hedgeScript{fastP: flatParams("ssd", 500*mib), slowP: c.slowP, reads: []float64{bytes}, gaps: []float64{1},
			writerAt: -1, faults: []hedgeFault{{dur: 10, bw: 1, readErr: true}}}
		if c.slowFails {
			sc.faults = append(sc.faults, hedgeFault{dur: 10, slowTier: true, bw: 1, readErr: true})
		}
		got, results := sc.play(t, hedgedRead)
		want, _ := sc.play(t, hedgedReadReference)
		if got != want {
			t.Fatalf("%s: race differs from the process reference\n--- transfers\n%s--- processes\n%s", c.name, got, want)
		}
		r := results[0]
		if !r.Hedged || r.FastWon || r.FastMoved != 0 || r.OK == c.slowFails {
			t.Fatalf("%s: %+v", c.name, r)
		}
		wantSlow := float64(bytes)
		if c.slowFails {
			wantSlow = 0
		}
		if r.SlowMoved != wantSlow {
			t.Fatalf("%s: slow leg moved %v, want %v", c.name, r.SlowMoved, wantSlow)
		}
	}
}

// hedgeBench is a warm hedged-read loop: contended forecast, both tiers
// healthy, a budget that never runs dry.
func hedgeBench(tb testing.TB, body func(read func())) {
	eng := sim.NewEngine()
	c := New(eng, Options{Hedge: HedgeConfig{Enabled: true}})
	c.node.refill = 1e9
	c.SetForecast(func() (next, peak float64, ok bool) { return 10, 100, true })
	fast, slow := device.New(eng, device.SSD("ssd")), device.New(eng, device.HDD("hdd"))
	cg := blkio.NewCgroup("a")
	k := c.Key(KeyStagingReadHedge)
	k.setPolicy(&Policy{Name: "staging.read.hedge", MaxAttempts: 1, Factor: 2, TimeoutFloor: 5, TimeoutMinBW: 2 * mib,
		Classify: ClassifyRead, BudgetCap: 16, BudgetRefill: 1e9})
	eng.Spawn("reader", func(p *sim.Proc) {
		w := &hedgeWaiter{p: p}
		body(func() {
			if res := w.read(k, fast, slow, cg, 64*mib); !res.OK || !res.FastWon || res.SlowMoved <= 0 {
				tb.Fatalf("warm hedge: %+v", res)
			}
		})
	})
	if err := eng.RunAll(); err != nil {
		tb.Fatal(err)
	}
}

// TestHedgedReadSteadyStateZeroAlloc: with no recorder a hedged read —
// two proc-less transfers, the loser cancelled mid-flight, done told —
// allocates nothing once the device's freelists are warm.
func TestHedgedReadSteadyStateZeroAlloc(t *testing.T) {
	hedgeBench(t, func(read func()) {
		for i := 0; i < 16; i++ {
			read()
		}
		if n := testing.AllocsPerRun(128, read); n != 0 {
			t.Errorf("hedged read allocates %.1f objects/op with a nil recorder, want 0", n)
		}
	})
}

// BenchmarkHedgedRead measures one race end to end; it must report
// 0 allocs/op.
func BenchmarkHedgedRead(b *testing.B) {
	b.ReportAllocs()
	hedgeBench(b, func(read func()) {
		read()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read()
		}
	})
}

// TestDeadlinedAttemptZeroAlloc: attempts whose deadline fires — a stuck
// device, every attempt cancelled by the device's own timer, backoff,
// degrade at the attempt limit — allocate nothing either: no timer
// closure, no per-attempt event beyond the device's.
func TestDeadlinedAttemptZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Options{})
	c.node.refill = 1e9
	d := device.New(eng, device.HDD("hdd"))
	cg := blkio.NewCgroup("a")
	k := c.Key(KeyStagingReadOptional)
	k.setPolicy(&Policy{Name: "stuck", MaxAttempts: 3, Backoff: 0.05, Factor: 2, MaxBackoff: 5,
		TimeoutFloor: 0.5, TimeoutMinBW: 4 * mib, Classify: ClassifyRead, BudgetRefill: 1e9})
	stick := func() { d.SetFault(0, 0) }
	read := func(p *sim.Proc) {
		d.ClearFault()
		eng.At(eng.Now()+0.2, stick) // sticks mid-flight: partial bytes, then the deadline
		if res := k.Read(p, d, cg, 64*mib); res.OK || res.Timeouts != 3 || res.Moved <= 0 {
			t.Errorf("read = %+v, want three timed-out attempts with partial bytes", res)
		}
	}
	var allocs float64
	eng.Spawn("reader", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			read(p)
		}
		allocs = testing.AllocsPerRun(32, func() { read(p) })
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("timed-out attempts allocate %.1f objects/op with a nil recorder, want 0", allocs)
	}
}
