package resil

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tango/internal/blkio"
	"tango/internal/device"
	"tango/internal/sim"
	"tango/internal/trace"
)

// readScript is one seeded scenario: a reader issuing policy-keyed reads
// back to back, a pause before each, against a device (maybe with no
// request latency) whose read errors, stalls and slowdowns come and go,
// with a competing writer.
type readScript struct {
	p       device.Params
	keys    []KeyID
	bytes   []float64
	gaps    []float64
	faults  []hedgeFault
	writeAt float64 // <0: no competing writer
	dry     bool    // the budgets start nearly dry and refill slowly
}

func randomReadScript(rng *rand.Rand) readScript {
	p := device.Params{Name: "hdd", PeakBandwidth: (10 + rng.Float64()*150) * mib,
		SeekThrash: rng.Float64() * 0.4, MinEfficiency: 0.2 + rng.Float64()*0.5}
	p.RequestLatency = []float64{0, 0, 0.008, 0.2}[rng.Intn(4)]
	sc := readScript{p: p, writeAt: -1}
	keys := []KeyID{KeyStagingReadBase, KeyStagingReadCapacity, KeyStagingReadOptional, KeyStagingProbe, KeyPrefetchStage, KeyFleetReadObjstore}
	for i, n := 0, 2+rng.Intn(8); i < n; i++ {
		sc.keys = append(sc.keys, keys[rng.Intn(len(keys))])
		sc.bytes = append(sc.bytes, (0.5+rng.Float64()*60)*mib)
		sc.gaps = append(sc.gaps, []float64{0, rng.Float64() * 3}[rng.Intn(2)])
	}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		f := hedgeFault{at: rng.Float64() * 20, dur: 0.05 + rng.Float64()*60, bw: 1}
		switch rng.Intn(4) {
		case 0:
			f.bw = 0
		case 1:
			f.bw = 0.01 + rng.Float64()*0.5
		case 2:
			f.readErr = true
		case 3:
			f.lat = rng.Float64() * 2
		}
		if rng.Intn(3) == 0 {
			f.at = 0
		}
		sc.faults = append(sc.faults, f)
	}
	if rng.Intn(2) == 0 {
		sc.writeAt = rng.Float64() * 4
	}
	sc.dry = rng.Intn(3) == 0
	return sc
}

// readDriver runs the script's reads as ReadOps from engine callbacks,
// standing where the reference's reader process stands.
type readDriver struct {
	sc      readScript
	c       *Controller
	dev     *device.Device
	cg      *blkio.Cgroup
	op      ReadOp
	i       int
	pausing bool
	results []ReadResult
}

func (d *readDriver) Fire() {
	eng := d.c.eng
	if d.pausing = !d.pausing; d.pausing {
		if d.i < len(d.sc.keys) {
			eng.AtCall(eng.Now()+d.sc.gaps[d.i], d)
		}
		return
	}
	if !d.op.Start(d.c.Key(d.sc.keys[d.i]), d.dev, d.cg, d.sc.bytes[d.i], d) {
		d.TransferDone(nil, nil)
	}
}

func (d *readDriver) TransferDone(*device.Token, error) {
	d.results = append(d.results, d.op.Res)
	d.i++
	d.Fire()
}

// play runs the script through Read (reference) or ReadOp and
// fingerprints results, counters, device, cgroups, clock and trace.
func (sc readScript) play(t *testing.T, reference bool) string {
	t.Helper()
	eng := sim.NewEngine()
	rec := trace.New(4096)
	c := New(eng, Options{Trace: rec})
	if sc.dry {
		for id := range c.keys {
			c.keys[id].bucket = bucket{cap: 2, refill: 0.05, tokens: 2}
		}
	}
	dev := device.New(eng, sc.p)
	cg, wcg := blkio.NewCgroup("reader"), blkio.NewCgroup("writer")
	d := &readDriver{sc: sc, c: c, dev: dev, cg: cg}
	if reference {
		eng.Spawn("reader", func(p *sim.Proc) {
			for i, id := range sc.keys {
				p.Sleep(sc.gaps[i])
				d.results = append(d.results, c.Key(id).Read(p, dev, cg, sc.bytes[i]))
			}
		})
	} else {
		eng.AtCall(0, d)
	}
	sc.arm(t, eng, dev, wcg)
	var out strings.Builder
	for i, r := range d.results {
		fmt.Fprintf(&out, "read%d ok=%t denied=%t degraded=%t attempts=%d retries=%d timeouts=%d el=%s moved=%s err=%v\n",
			i, r.OK, r.Denied, r.Degraded, r.Attempts, r.Retries, r.Timeouts, bits(r.Elapsed), bits(r.Moved), r.Err)
	}
	for id := range c.keys {
		st := c.keys[id].stats
		wasted := st.WastedBytes
		st.WastedBytes = 0
		fmt.Fprintf(&out, "key%d %+v wasted=%s\n", id, st, bits(wasted))
	}
	fmt.Fprintf(&out, "totals %+v dev total=%s busy=%s cg=%s now=%s armed=%d\n", c.Totals(), bits(dev.TotalBytes()), bits(dev.BusyTime()),
		bits(cg.BytesRead()), bits(eng.Now()), eng.Scheduled())
	for _, ev := range rec.Events() {
		fmt.Fprintf(&out, "%s %s %s %s\n", bits(ev.T), ev.Source, ev.Kind, ev.Msg())
	}
	return out.String()
}

// arm arms the script's competing writer and faults, and runs the engine
// dry.
func (sc readScript) arm(t *testing.T, eng *sim.Engine, dev *device.Device, wcg *blkio.Cgroup) {
	t.Helper()
	if sc.writeAt >= 0 {
		eng.SpawnAt(sc.writeAt, "writer", func(p *sim.Proc) { dev.Write(p, wcg, 500*mib) })
	}
	for _, f := range sc.faults {
		eng.At(f.at, func() { dev.SetFault(f.bw, f.lat); dev.SetReadError(f.readErr) })
		eng.At(f.at+f.dur, func() { dev.ClearFault(); dev.SetReadError(false) })
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
}

// TestReadOpMatchesRead: over seeded scenarios — every read key, bounded
// and unbounded, deadlined or not, read errors, stalls, slowdowns, a
// device with no request latency (where a failed attempt ends at issue)
// — ReadOp driven by callbacks leaves every result, counter, device
// float and trace event where the blocking Read left them.
func TestReadOpMatchesRead(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(1); seed <= 400; seed++ {
		sc := randomReadScript(rand.New(rand.NewSource(seed)))
		want, got := sc.play(t, true), sc.play(t, false)
		if got != want {
			t.Fatalf("seed %d: ReadOp differs from Read\n--- ReadOp\n%s--- Read\n%s", seed, got, want)
		}
		for _, k := range []string{"retry key", "degrade key", "open key", "pace key", "deny key", "timeout=true"} {
			seen[k] += strings.Count(got, k)
		}
		if sc.p.RequestLatency == 0 && strings.Contains(got, "retry key") {
			seen["zero-latency retry"]++
		}
	}
	for _, k := range []string{"retry key", "degrade key", "open key", "pace key", "deny key", "timeout=true", "zero-latency retry"} {
		if seen[k] == 0 {
			t.Errorf("no scenario reached %q: %v", k, seen)
		}
	}
}

// adhocRetryLoop is the blocking ad-hoc retry loop the adhoc catalog's
// read rows reproduce: a fallible read retried after a backoff of 0.05 s
// doubling to 5 s, without bound or, bounded, for four attempts at most,
// and charged the bytes requested over its wall-clock span.
func adhocRetryLoop(p *sim.Proc, dev *device.Device, cg *blkio.Cgroup, bytes float64, bounded bool) (r ReadResult) {
	start, delay := p.Now(), 0.05
	for {
		r.Attempts++
		if _, err := dev.TryReadCancel(p, cg, bytes, nil, 0); err == nil {
			r.OK = true
			break
		}
		if bounded && r.Attempts >= 4 {
			r.Degraded = true
			break
		}
		r.Retries++
		p.Sleep(delay)
		delay = min(delay*2, 5)
	}
	r.Moved, r.Elapsed = bytes, p.Now()-start
	return r
}

// TestAdhocReadMatchesRetryLoop: over seeded scenarios — the three adhoc
// read keys, read-error windows among stalls and slowdowns, a device with
// no request latency — ReadOp under NewAdhoc's keys leaves every result,
// device float and the count of events armed where the blocking retry
// loop left them: a mandatory read recovers, an optional one degrades at
// its fourth attempt charged the bytes requested.
func TestAdhocReadMatchesRetryLoop(t *testing.T) {
	play := func(sc readScript, reference bool) (string, []ReadResult) {
		eng := sim.NewEngine()
		c := NewAdhoc(eng, nil)
		dev := device.New(eng, sc.p)
		cg, wcg := blkio.NewCgroup("reader"), blkio.NewCgroup("writer")
		d := &readDriver{sc: sc, c: c, dev: dev, cg: cg}
		if reference {
			eng.Spawn("reader", func(p *sim.Proc) {
				for i, id := range sc.keys {
					p.Sleep(sc.gaps[i])
					d.results = append(d.results, adhocRetryLoop(p, dev, cg, sc.bytes[i], id == KeyStagingReadOptional))
				}
			})
		} else {
			eng.AtCall(0, d)
		}
		sc.arm(t, eng, dev, wcg)
		var out strings.Builder
		for i, r := range d.results {
			fmt.Fprintf(&out, "read%d ok=%t degraded=%t attempts=%d retries=%d el=%s moved=%s\n",
				i, r.OK, r.Degraded, r.Attempts, r.Retries, bits(r.Elapsed), bits(r.Moved))
		}
		fmt.Fprintf(&out, "dev total=%s busy=%s cg=%s now=%s armed=%d\n", bits(dev.TotalBytes()), bits(dev.BusyTime()),
			bits(cg.BytesRead()), bits(eng.Now()), eng.Scheduled())
		return out.String(), d.results
	}
	keys := []KeyID{KeyStagingReadBase, KeyStagingReadCapacity, KeyStagingReadOptional}
	seen := map[string]int{}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := randomReadScript(rng)
		for i := range sc.keys {
			sc.keys[i] = keys[rng.Intn(len(keys))]
		}
		sc.faults = append(sc.faults, hedgeFault{at: rng.Float64() * 5, dur: rng.Float64() * 3, bw: 1, readErr: true})
		want, _ := play(sc, true)
		got, res := play(sc, false)
		if got != want {
			t.Fatalf("seed %d: ReadOp under the adhoc keys differs from the retry loop\n--- ReadOp\n%s--- loop\n%s", seed, got, want)
		}
		for i, r := range res {
			switch {
			case r.OK && r.Retries > 0 && sc.keys[i] != KeyStagingReadOptional:
				seen["mandatory recovered"]++
			case !r.OK && r.Attempts == 4 && r.Moved == sc.bytes[i]:
				seen["optional degraded"]++
			}
		}
		if sc.p.RequestLatency == 0 && strings.Contains(got, "retries=1") {
			seen["zero-latency retry"]++
		}
	}
	for _, k := range []string{"mandatory recovered", "optional degraded", "zero-latency retry"} {
		if seen[k] == 0 {
			t.Errorf("no scenario reached %q: %v", k, seen)
		}
	}
}

// plainDone records that a read ended.
type plainDone struct{ ended int }

func (d *plainDone) TransferDone(*device.Token, error) { d.ended++ }

// TestNilKeyReadIsPlain: a direct row's nil key reads plainly — one
// infallible, undeadlined read that moves every byte through a read-error
// fault — whether it ends at issue or is told later.
func TestNilKeyReadIsPlain(t *testing.T) {
	for _, lat := range []float64{0, 0.008} {
		eng := sim.NewEngine()
		p := device.HDD("hdd")
		p.RequestLatency = lat
		dev := device.New(eng, p)
		dev.SetReadError(true)
		cg := blkio.NewCgroup("reader")
		k := NewAdhoc(eng, nil).Key(KeyStagingProbe)
		if k != nil {
			t.Fatalf("the adhoc probe row has key %q, want direct", k.Policy().Name)
		}
		var op ReadOp
		var done plainDone
		if !op.Start(k, dev, cg, 8*mib, &done) {
			done.ended++
		}
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		want := ReadResult{OK: true, Attempts: 1, Elapsed: eng.Now(), Moved: 8 * mib}
		if done.ended != 1 || op.Res != want || dev.TotalBytes() != 8*mib || cg.BytesRead() != 8*mib {
			t.Fatalf("latency %v: ended %d, %+v (want %+v), device %v, cgroup %v", lat, done.ended, op.Res, want, dev.TotalBytes(), cg.BytesRead())
		}
	}
}
