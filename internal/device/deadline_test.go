package device

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"tango/internal/blkio"
	"tango/internal/sim"
)

// The token deadline replaced a per-attempt engine timer. That sequence —
// arm a timer that cancels the token, read, stop the timer — is kept here
// as the reference, and every deadline test runs its scenario twice, once
// through each, and compares everything observable by bits.

// deadlinedRead is one way of issuing a read that is cancelled at an
// absolute virtual time (0 or +Inf = never).
type deadlinedRead func(d *Device, p *sim.Proc, cg *blkio.Cgroup, bytes float64, tok *Token, deadline float64) (float64, error)

func tokenDeadline(d *Device, p *sim.Proc, cg *blkio.Cgroup, bytes float64, tok *Token, deadline float64) (float64, error) {
	return d.TryReadCancel(p, cg, bytes, tok, deadline)
}

func referenceDeadline(d *Device, p *sim.Proc, cg *blkio.Cgroup, bytes float64, tok *Token, deadline float64) (float64, error) {
	var tm sim.Timer
	if deadline > 0 && !math.IsInf(deadline, 1) {
		// Armed before the read re-arms tok, as resil's attempt did: the
		// callback only runs later, against the armed token.
		tm = d.Engine().At(deadline, func() { tok.Cancel() })
	}
	el, err := d.TryReadCancel(p, cg, bytes, tok, 0)
	tm.Stop()
	return el, err
}

// scenario is a script of readers and fault events on one device.
type scenario struct {
	params  Params
	readers []reader
	events  []event
}

type reader struct {
	start    float64
	cg       int       // index into the scenario's cgroups
	bytes    []float64 // reads issued back to back through one Token
	timeout  []float64 // per read: seconds after its start, 0 = none, +Inf = +Inf
	plain    bool      // an undeadlined Read through no Token at all
	isWriter bool
}

type event struct {
	at       float64
	bw, lat  float64
	readErr  bool
	clear    bool
	weight   int // >0: set cgroup[cg]'s weight
	cg       int
	throttle float64
}

// run plays sc with read as the deadline mechanism and returns a
// fingerprint of every observable, floats as bit patterns.
func (sc scenario) run(t *testing.T, read deadlinedRead) string {
	t.Helper()
	eng := sim.NewEngine()
	d := New(eng, sc.params)
	ncg := 1
	for _, r := range sc.readers {
		ncg = max(ncg, r.cg+1)
	}
	for _, e := range sc.events {
		ncg = max(ncg, e.cg+1)
	}
	cgs := make([]*blkio.Cgroup, ncg)
	for i := range cgs {
		cgs[i] = blkio.NewCgroup(fmt.Sprintf("cg%d", i))
	}
	var out strings.Builder
	lines := make([][]string, len(sc.readers))
	for i, r := range sc.readers {
		i, r := i, r
		eng.SpawnAt(r.start, fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			var tok Token
			for j, bytes := range r.bytes {
				var el float64
				var err error
				switch {
				case r.isWriter:
					el = d.Write(p, cgs[r.cg], bytes)
				case r.plain:
					el = d.Read(p, cgs[r.cg], bytes)
				default:
					deadline := r.timeout[j]
					if deadline > 0 {
						deadline += p.Now()
					}
					el, err = read(d, p, cgs[r.cg], bytes, &tok, deadline)
				}
				class := "ok"
				switch {
				case errors.Is(err, ErrCanceled):
					class = "canceled"
				case errors.Is(err, ErrRead):
					class = "readerr"
				case err != nil:
					class = err.Error()
				}
				lines[i] = append(lines[i], fmt.Sprintf("r%d.%d el=%x moved=%x %s end=%x",
					i, j, math.Float64bits(el), math.Float64bits(tok.Moved()), class, math.Float64bits(p.Now())))
			}
		})
	}
	for _, e := range sc.events {
		e := e
		eng.At(e.at, func() {
			switch {
			case e.weight > 0:
				cgs[e.cg].SetWeight(e.weight)
			case e.throttle > 0:
				cgs[e.cg].SetReadBpsLimit(e.throttle)
			case e.clear:
				d.ClearFault()
				d.SetReadError(false)
			default:
				d.SetFault(e.bw, e.lat)
				d.SetReadError(e.readErr)
			}
		})
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		for _, s := range l {
			fmt.Fprintln(&out, s)
		}
	}
	fmt.Fprintf(&out, "total=%x busy=%x now=%x active=%d deadlined=%d\n",
		math.Float64bits(d.TotalBytes()), math.Float64bits(d.BusyTime()), math.Float64bits(eng.Now()), d.ActiveFlows(), d.deadlined)
	for i, cg := range cgs {
		fmt.Fprintf(&out, "cg%d read=%x written=%x\n", i, math.Float64bits(cg.BytesRead()), math.Float64bits(cg.BytesWritten()))
	}
	return out.String()
}

// both runs sc through the token deadline and the reference and fails on
// any difference; it returns the (common) fingerprint.
func (sc scenario) both(t *testing.T) string {
	t.Helper()
	got, want := sc.run(t, tokenDeadline), sc.run(t, referenceDeadline)
	if got != want {
		t.Fatalf("token deadline differs from the After+Cancel+Stop reference\n--- token\n%s--- reference\n%s", got, want)
	}
	return got
}

// one is a scenario with a single deadlined read starting at t=0.
func one(pp Params, bytes, timeout float64, events ...event) scenario {
	return scenario{params: pp, events: events,
		readers: []reader{{bytes: []float64{bytes}, timeout: []float64{timeout}}}}
}

// check runs a single-read scenario both ways and compares the outcome
// with the expected class, elapsed time and moved bytes.
func check(t *testing.T, sc scenario, class string, elapsed, moved float64) {
	t.Helper()
	fp := sc.both(t)
	want := fmt.Sprintf("r0.0 el=%x moved=%x %s ", math.Float64bits(elapsed), math.Float64bits(moved), class)
	if !strings.HasPrefix(fp, want) {
		t.Fatalf("outcome:\n%swant prefix %q (elapsed %v, moved %v)", fp, want, elapsed, moved)
	}
	if !strings.Contains(fp, "active=0 deadlined=0") {
		t.Fatalf("device left with flows or a deadline count:\n%s", fp)
	}
}

func TestDeadlineInLatencyPhase(t *testing.T) {
	pp := flatParams(100)
	pp.RequestLatency = 0.5
	// The deadline passes while the request pays its latency: the read
	// returns when the latency is paid, like a pre-flow Cancel, untouched.
	check(t, one(pp, 1000, 0.2), "canceled", 0.5, 0)
	// Deadline exactly at the issue instant: the old cancel event had the
	// lower seq and ran first.
	check(t, one(pp, 1000, 0.5), "canceled", 0.5, 0)
}

func TestDeadlineOnStalledDevice(t *testing.T) {
	// 100 B/s for 1 s, then the device sticks with nothing else in flight:
	// no completion to schedule, the timer is armed for the deadline alone.
	sc := one(flatParams(100), 1000, 3, event{at: 1, bw: 0})
	check(t, sc, "canceled", 3, 100)
	// The same with the fault clearing after the deadline has fired.
	sc.events = append(sc.events, event{at: 4, clear: true})
	check(t, sc, "canceled", 3, 100)
}

func TestDeadlineAtCompletionInstantCancels(t *testing.T) {
	// 1000 B at 100 B/s drains at t=10 exactly: on the tie the deadline
	// wins, as the cancel timer (armed first, lower seq) used to.
	check(t, one(flatParams(100), 1000, 10), "canceled", 10, 1000)
	check(t, one(flatParams(100), 1000, 10.5), "ok", 10, 1000)
}

func TestNoDeadlineNeverFires(t *testing.T) {
	for _, none := range []float64{0, math.Inf(1), -1} {
		sc := one(flatParams(100), 1000, none, event{at: 1, bw: 0}, event{at: 1e6, clear: true})
		check(t, sc, "ok", 1e6+9, 1000)
	}
}

func TestReusedTokenRearmsDeadline(t *testing.T) {
	// One Token through four reads: expires, completes under a later
	// deadline, completes with none, expires again.
	sc := scenario{params: flatParams(100), readers: []reader{{
		bytes:   []float64{1000, 1000, 1000, 1000},
		timeout: []float64{4, 20, 0, 2.5},
	}}}
	fp := sc.both(t)
	for _, want := range []string{"r0.0 el=4010000000000000 moved=4079000000000000 canceled", "r0.1 el=4024000000000000 moved=408f400000000000 ok",
		"r0.2 el=4024000000000000 moved=408f400000000000 ok", "r0.3 el=4004000000000000 moved=406f400000000000 canceled"} {
		if !strings.Contains(fp, want) {
			t.Fatalf("missing %q in\n%s", want, fp)
		}
	}
}

func TestDeadlinedAndPlainFlowsShareDevice(t *testing.T) {
	// Two deadlined flows and an undeadlined one on one HDD (latency, seek
	// thrash): the first deadline fires mid-flight and frees its share,
	// the second flow then beats its own deadline, the plain read runs on.
	sc := scenario{params: HDD("hdd"), readers: []reader{
		{cg: 0, bytes: []float64{900 * MB}, timeout: []float64{6}},
		{cg: 1, start: 0.5, bytes: []float64{400 * MB}, timeout: []float64{30}},
		{cg: 2, start: 1, bytes: []float64{2000 * MB}, plain: true},
	}, events: []event{{at: 3, weight: 700, cg: 1}}}
	fp := sc.both(t)
	if !strings.Contains(fp, " canceled ") || strings.Count(fp, " ok ") != 2 {
		t.Fatalf("want one expiry and two completions:\n%s", fp)
	}
	// Both deadlines at the same instant on the same device, a third flow
	// draining later: one timer expires both.
	sc = scenario{params: flatParams(100), readers: []reader{
		{cg: 0, bytes: []float64{1000}, timeout: []float64{5}},
		{cg: 1, bytes: []float64{1000}, timeout: []float64{5}},
		{cg: 2, bytes: []float64{300}, plain: true},
	}}
	fp = sc.both(t)
	if strings.Count(fp, " canceled ") != 2 {
		t.Fatalf("want both deadlined flows expired:\n%s", fp)
	}
}

// TestDeadlineMatchesReferenceRandomized drives seeded random scripts —
// deadlined, plain and writing flows over weights, throttles, collapses,
// stalls, latency spikes and read-error windows — through both mechanisms.
func TestDeadlineMatchesReferenceRandomized(t *testing.T) {
	outcomes := map[string]int{}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pp := Params{Name: "dev", PeakBandwidth: 50 + rng.Float64()*200, SeekThrash: rng.Float64() * 0.5,
			MinEfficiency: 0.1 + rng.Float64()*0.5, RequestLatency: float64(rng.Intn(3)) * 0.05 * rng.Float64()}
		var sc scenario
		sc.params = pp
		for i, n := 0, 2+rng.Intn(5); i < n; i++ {
			r := reader{start: rng.Float64() * 10, cg: rng.Intn(3)}
			switch rng.Intn(5) {
			case 0:
				r.plain = true
			case 1:
				r.isWriter = true
			}
			for j, m := 0, 1+rng.Intn(3); j < m; j++ {
				bytes := 10 + rng.Float64()*1000
				r.bytes = append(r.bytes, bytes)
				// Around the uncontended service time, so both outcomes occur.
				timeout := bytes / pp.PeakBandwidth * (0.3 + rng.Float64()*4)
				if rng.Intn(6) == 0 {
					timeout = []float64{0, math.Inf(1)}[rng.Intn(2)]
				}
				r.timeout = append(r.timeout, timeout)
			}
			sc.readers = append(sc.readers, r)
		}
		for i, n := 0, rng.Intn(5); i < n; i++ {
			e := event{at: rng.Float64() * 20, cg: rng.Intn(3)}
			switch rng.Intn(6) {
			case 0:
				e.weight = 100 + rng.Intn(900)
			case 1:
				e.throttle = 5 + rng.Float64()*50
			case 2:
				e.clear = true
			case 3: // stuck until something clears it
				e.bw, e.lat = 0, 0
				sc.events = append(sc.events, event{at: e.at + 1 + rng.Float64()*30, clear: true})
			default:
				e.bw, e.lat, e.readErr = 0.05+rng.Float64()*0.9, float64(rng.Intn(2))*rng.Float64(), rng.Intn(3) == 0
				sc.events = append(sc.events, event{at: e.at + 1 + rng.Float64()*30, clear: true})
			}
			sc.events = append(sc.events, e)
		}
		fp := sc.both(t)
		for _, class := range []string{" ok ", " canceled ", " readerr "} {
			outcomes[class] += strings.Count(fp, class)
		}
	}
	for class, n := range outcomes {
		if n < 20 {
			t.Errorf("only %d%soutcomes over the sweep: the scripts do not exercise it", n, class)
		}
	}
	t.Logf("outcomes: %v", outcomes)
}

// completions records Begin notifications.
type completions struct {
	eng  *sim.Engine
	log  []string
	then func(tok *Token)
}

func (c *completions) TransferDone(tok *Token, err error) {
	c.log = append(c.log, fmt.Sprintf("t=%g moved=%g err=%v", c.eng.Now(), tok.Moved(), err))
	if c.then != nil {
		c.then(tok)
	}
}

// TestStartReadNotifiesEveryEnding: a proc-less read begun on a device
// with request latency tells its Completion once however it ends —
// drained, read error at issue, zero bytes, cancelled mid-flight,
// cancelled during the latency, expired — always finished first (Moved
// final, cgroup accounted, token spent), never before Begin returns, and
// a Completion may begin the next read on the same device from inside the
// notification.
func TestStartReadNotifiesEveryEnding(t *testing.T) {
	eng := sim.NewEngine()
	pp := flatParams(100)
	pp.RequestLatency = 0.5
	d := New(eng, pp)
	cg := blkio.NewCgroup("a")
	c := &completions{eng: eng}
	var drained, failed, empty, cancelled, pre, expired, chained Token
	begin := func(bytes float64, tok *Token, deadline float64) {
		if ended, _ := d.Begin(cg, bytes, false, true, tok, deadline, c); ended {
			t.Fatalf("a %v-byte read ended inside Begin despite the request latency", bytes)
		}
	}
	begin(100, &drained, 0) // t=0.5..1.5
	begin(0, &empty, 0)     // t=0.5
	if len(c.log) != 0 {
		t.Fatalf("notified before Begin returned: %v", c.log)
	}
	eng.At(2, func() {
		d.SetReadError(true)
		begin(100, &failed, 0) // fails at t=2.5
	})
	eng.At(3, func() {
		d.SetReadError(false)
		begin(1000, &cancelled, 0) // issued 3.5, alone on the device, cancelled at 5: 150 B
		begin(1000, &pre, 0)       // cancelled at 3.2, ends at 3.5 without joining
		eng.At(3.2, func() { pre.Cancel() })
		eng.At(5, func() {
			if !cancelled.Cancel() || cancelled.Cancel() {
				t.Error("first Cancel must succeed, the second be a no-op")
			}
		})
	})
	eng.At(6, func() {
		c.then = func(tok *Token) {
			c.then = nil
			begin(50, &chained, 0) // from inside the notification
		}
		begin(1000, &expired, 8) // issued 6.5, expires at 8: 150 B
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"t=0.5 moved=0 err=<nil>",
		"t=1.5 moved=100 err=<nil>",
		`t=2.5 moved=0 err=device "flat": device: transient read error`,
		`t=3.5 moved=0 err=device "flat": device: transfer canceled`,
		`t=5 moved=150 err=device "flat": device: transfer canceled`,
		`t=8 moved=150 err=device "flat": device: transfer canceled`,
		"t=9 moved=50 err=<nil>",
	}
	if fmt.Sprint(c.log) != fmt.Sprint(want) {
		t.Fatalf("notifications:\n%s\nwant:\n%s", strings.Join(c.log, "\n"), strings.Join(want, "\n"))
	}
	if got := cg.BytesRead(); got != 100+150+150+50 {
		t.Fatalf("cgroup accounted %v bytes", got)
	}
	if d.TotalBytes() != cg.BytesRead() || d.ActiveFlows() != 0 || d.deadlined != 0 {
		t.Fatalf("device: total %v, %d active, %d deadlined", d.TotalBytes(), d.ActiveFlows(), d.deadlined)
	}
	for _, tok := range []*Token{&drained, &failed, &empty, &cancelled, &pre, &expired, &chained} {
		if tok.Cancel() {
			t.Fatal("a finished transfer's token must be spent")
		}
	}
}

// TestStartReadSteadyStateZeroAlloc: a proc-less read begun with a
// deadline — the hedge leg — allocates nothing once the free flows and
// spare events are warm, whether it drains or expires.
func TestStartReadSteadyStateZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, HDD("hdd"))
	cg := blkio.NewCgroup("a")
	var done int
	sink := sinkCompletion{n: &done}
	var tok Token
	round := func(timeout float64) {
		if ended, _ := d.Begin(cg, 64*MB, false, true, &tok, eng.Now()+timeout, sink); ended {
			t.Fatal("a read ended inside Begin despite the request latency")
		}
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		round(10)
		round(0.1)
	}
	before := done
	if n := testing.AllocsPerRun(64, func() { round(10); round(0.1) }); n != 0 {
		t.Fatalf("Begin allocates %.1f objects per drained+expired pair, want 0", n)
	}
	if done-before != 2*65 {
		t.Fatalf("%d notifications for %d reads", done-before, 2*65)
	}
}

type sinkCompletion struct{ n *int }

func (s sinkCompletion) TransferDone(*Token, error) { *s.n++ }

// TestFlowSizePinned holds flow on the 80-byte size class it fills
// exactly: the fleet workload holds ~100 k of them and one more 16-byte
// field moved fleet alloc_kb_per_unit +2.6 % against BENCHMARK.json's
// 0.02 bound. Per-transfer extras (deadline, completion) go on Token.
func TestFlowSizePinned(t *testing.T) {
	if n := unsafe.Sizeof(flow{}); n > 80 {
		t.Errorf("sizeof(flow) = %d, want <= 80 (fleet alloc_kb_per_unit)", n)
	}
}
