package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"tango/internal/blkio"
	"tango/internal/container"
	"tango/internal/device"
	"tango/internal/runpool"
	"tango/internal/sim"
)

func newTestNode() (*container.Node, *device.Device) {
	n := container.NewNode("n0")
	hdd := n.MustAddDevice(device.Params{Name: "hdd", PeakBandwidth: 100 * device.MB, MinEfficiency: 1})
	return n, hdd
}

func TestPaperNoiseSetMatchesTableIV(t *testing.T) {
	set := PaperNoiseSet()
	if len(set) != 6 {
		t.Fatalf("len = %d, want 6", len(set))
	}
	wantPeriods := []float64{200, 225, 360, 180, 150, 120}
	wantMB := []float64{768, 512, 512, 1024, 1024, 1024}
	for i, n := range set {
		if n.Period != wantPeriods[i] {
			t.Errorf("noise %d period = %v, want %v", i+1, n.Period, wantPeriods[i])
		}
		if n.CheckpointBytes != wantMB[i]*device.MB {
			t.Errorf("noise %d size = %v, want %v MB", i+1, n.CheckpointBytes, wantMB[i])
		}
	}
}

// TestFirstPaperNoiseClampsCount: a count outside 0–6 is clamped, not
// sliced with — `tangosim -noise -1` used to panic here.
func TestFirstPaperNoiseClampsCount(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{-1, 0}, {0, 0}, {3, 3}, {6, 6}, {7, 6}} {
		got := FirstPaperNoise(tc.n)
		if len(got) != tc.want {
			t.Errorf("FirstPaperNoise(%d): %d interferers, want %d", tc.n, len(got), tc.want)
		}
		for i, n := range got {
			if want := PaperNoiseSet()[i]; n != want {
				t.Errorf("FirstPaperNoise(%d)[%d] = %+v, want %+v", tc.n, i, n, want)
			}
		}
	}
}

func TestNoisePeriodicity(t *testing.T) {
	n, hdd := newTestNode()
	// Small checkpoint so writes are short relative to the period.
	LaunchNoise(n, hdd, Noise{Name: "nz", Period: 100, CheckpointBytes: 10 * device.MB, Phase: 5})
	if err := n.Engine().Run(1000); err != nil {
		t.Fatal(err)
	}
	cg := n.Container("nz").Cgroup()
	// Starts at 5, 105, 205, ... 905: 10 checkpoints by t=1000.
	want := 10 * 10 * float64(device.MB)
	if got := cg.BytesWritten(); got != want {
		t.Fatalf("bytes written = %v, want %v", got, want)
	}
}

func TestNoiseBackToBackWhenOverloaded(t *testing.T) {
	n, hdd := newTestNode()
	// Each checkpoint takes 20s (2000MB at 100MB/s) but period is 10s:
	// the writer must go back-to-back without negative sleeps.
	LaunchNoise(n, hdd, Noise{Name: "nz", Period: 10, CheckpointBytes: 2000 * device.MB})
	if err := n.Engine().Run(100); err != nil {
		t.Fatal(err)
	}
	cg := n.Container("nz").Cgroup()
	if got := cg.BytesWritten(); got != 5*2000*float64(device.MB) {
		t.Fatalf("bytes written = %v, want 5 checkpoints", got)
	}
}

func TestLaunchNoiseSetStartsAll(t *testing.T) {
	n, hdd := newTestNode()
	cs := LaunchNoiseSet(n, hdd, PaperNoiseSet())
	if len(cs) != 6 {
		t.Fatalf("containers = %d", len(cs))
	}
	if err := n.Engine().Run(500); err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		if c.Cgroup().BytesWritten() == 0 {
			t.Errorf("noise %s wrote nothing by t=500", c.Name())
		}
	}
}

func TestRandomNoiseDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) float64 {
		n, hdd := newTestNode()
		RandomNoise(n, hdd, "rnd", 10, 1*device.MB, 5*device.MB, seed)
		if err := n.Engine().Run(1000); err != nil {
			t.Fatal(err)
		}
		return n.Container("rnd").Cgroup().BytesWritten()
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("same seed, different totals: %v vs %v", a, b)
	}
	if a == 0 {
		t.Fatal("random noise wrote nothing")
	}
	if c := run(8); c == a {
		t.Fatalf("different seeds should (almost surely) differ: %v", c)
	}
}

func TestPeriodicReaderObservations(t *testing.T) {
	n, hdd := newTestNode()
	type obs struct{ start, io, bytes float64 }
	var seen []obs
	PeriodicReader(n, hdd, "reader", 60, 5,
		func(step int) float64 { return 60 * device.MB },
		func(step int, start, ioTime, bytes float64) {
			seen = append(seen, obs{start, ioTime, bytes})
		})
	if err := n.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 5 {
		t.Fatalf("steps = %d", len(seen))
	}
	for i, o := range seen {
		if math.Abs(o.start-float64(i)*60) > 1e-9 {
			t.Errorf("step %d start = %v", i, o.start)
		}
		if math.Abs(o.io-0.6) > 1e-9 { // 60MB at 100MB/s
			t.Errorf("step %d io = %v, want 0.6", i, o.io)
		}
	}
}

func TestPeriodicReaderUnderInterference(t *testing.T) {
	// Perceived bandwidth must drop while a noise checkpoint overlaps.
	n, hdd := newTestNode()
	LaunchNoise(n, hdd, Noise{Name: "nz", Period: 1e6, CheckpointBytes: 3000 * device.MB, Phase: 50})
	var ioTimes []float64
	PeriodicReader(n, hdd, "reader", 60, 3,
		func(step int) float64 { return 30 * device.MB },
		func(step int, start, ioTime, bytes float64) { ioTimes = append(ioTimes, ioTime) })
	if err := n.Engine().Run(200); err != nil {
		t.Fatal(err)
	}
	// step 0 at t=0 is clean (0.3s); step 1 at t=60 overlaps the noise
	// write (t=50..80): contended.
	if !(ioTimes[1] > ioTimes[0]*1.5) {
		t.Fatalf("interference not visible: %v", ioTimes)
	}
}

// launchNoiseReference is the Table IV interferer as it was written
// before it became engine callbacks: one process running the checkpoint
// loop. TestCallbackMatchesProcessLoop holds LaunchValidNoise to it.
func launchNoiseReference(node *container.Node, dev *device.Device, n Noise) (*container.Container, *Handle) {
	rng := rand.New(rand.NewSource(n.Seed))
	h := &Handle{}
	c := node.MustLaunch(n.Name, func(c *container.Container, p *sim.Proc) {
		p.Sleep(n.Phase)
		for !h.stopped {
			start := p.Now()
			dev.Write(p, c.Cgroup(), n.CheckpointBytes)
			period := n.Period
			if h.period > 0 {
				period = h.period
			}
			if n.Jitter > 0 {
				period *= 1 + n.Jitter*(2*rng.Float64()-1)
			}
			wait := period - (p.Now() - start)
			if wait > 0 {
				p.Sleep(wait)
			}
		}
	})
	return c, h
}

// equivScenario is one seeded run of interferers against a reader on one
// device, with device faults and churn fired from engine events.
type equivScenario struct {
	dev      device.Params
	noise    []Noise
	launchAt []float64 // 0: at set-up; else from an engine event, as a fault-plan join
	weights  []int
	faults   []equivFault
	churn    []equivChurn
	readerMB float64
	horizon  float64
}

// equivFault is a SetFault window; bw 0 is a stuck device.
type equivFault struct{ at, dur, bw, lat float64 }

// equivChurn stops interferer who, or sets its period (<= 0 restores it).
type equivChurn struct {
	at, period float64
	who        int
	stop       bool
}

// drawScenario draws times on a coarse grid, so that checkpoints, reads,
// launches, faults and churn often land on the same instant and the
// order of same-instant events shows in what the run produces.
func drawScenario(seed int64) equivScenario {
	rng := rand.New(rand.NewSource(seed))
	grid := func(hi int) float64 { return float64(5 * rng.Intn(hi/5+1)) }
	sc := equivScenario{readerMB: float64(10 + rng.Intn(90)), horizon: 1200}
	if rng.Intn(2) == 0 {
		sc.dev = device.HDD("hdd")
	} else {
		sc.dev = device.Params{Name: "zero-latency", PeakBandwidth: 200 * device.MB, SeekThrash: 0.2, MinEfficiency: 0.3, WriteFactor: 0.9}
		if rng.Intn(4) == 0 {
			sc.readerMB = 0 // every read ends inside Begin, amid the interferers' events
		}
	}
	for i, count := 0, 1+rng.Intn(6); i < count; i++ {
		n := Noise{
			Name:            fmt.Sprintf("nz%d", i),
			Period:          grid(200) + 5,
			CheckpointBytes: (1 + 2047*rng.Float64()) * device.MB, // from far under to far over a period's worth
			Seed:            rng.Int63(),
		}
		if rng.Intn(3) > 0 {
			n.Phase = grid(100)
		}
		if rng.Intn(3) == 0 {
			n.Jitter = 0.5 * rng.Float64()
		}
		sc.noise = append(sc.noise, n)
		launch := 0.0
		if rng.Intn(3) == 0 {
			launch = grid(600)
		}
		sc.launchAt = append(sc.launchAt, launch)
		sc.weights = append(sc.weights, 100+rng.Intn(901))
	}
	for i := rng.Intn(4); i > 0; i-- {
		f := equivFault{at: grid(1100), dur: grid(100) + 1, bw: rng.Float64()}
		if rng.Intn(4) == 0 {
			f.bw = 0 // stuck
		}
		if rng.Intn(2) == 0 {
			f.lat = 0.1 * rng.Float64()
		}
		sc.faults = append(sc.faults, f)
	}
	for i := rng.Intn(5); i > 0; i-- {
		sc.churn = append(sc.churn, equivChurn{at: grid(1100), period: grid(150) - 10, who: rng.Intn(len(sc.noise)), stop: rng.Intn(2) == 0})
	}
	return sc
}

// equivOutcome is what a scenario's run leaves behind, compared by bits.
type equivOutcome struct {
	written       []float64 // per interferer cgroup
	total, busy   float64
	reads         []float64 // (start, ioTime, flows in flight) per reader step
	now           float64
	pending       int
	launchedLater int
}

func runScenario(t *testing.T, sc equivScenario, launch func(*container.Node, *device.Device, Noise) (*container.Container, *Handle)) equivOutcome {
	t.Helper()
	node := container.NewNode("equiv")
	dev := node.MustAddDevice(sc.dev)
	eng := node.Engine()
	var out equivOutcome
	handles := make([]*Handle, len(sc.noise))
	start := func(i int) {
		c, h := launch(node, dev, sc.noise[i])
		c.SetWeight(sc.weights[i])
		handles[i] = h
	}
	for i := range sc.noise {
		if sc.launchAt[i] == 0 {
			start(i)
		} else {
			eng.At(sc.launchAt[i], func() { start(i); out.launchedLater++ })
		}
	}
	for _, f := range sc.faults {
		eng.At(f.at, func() { dev.SetFault(f.bw, f.lat) })
		eng.At(f.at+f.dur, dev.ClearFault)
	}
	for _, c := range sc.churn {
		eng.At(c.at, func() {
			switch h := handles[c.who]; {
			case h == nil:
			case c.stop:
				h.Stop()
			default:
				h.SetPeriod(c.period)
			}
		})
	}
	// The reader starts from an event, as a session launched after the
	// interferers would: at t=0 the phase-0 checkpoints then begin first.
	eng.At(0, func() {
		PeriodicReader(node, dev, "reader", 60, int(sc.horizon/60),
			func(int) float64 { return sc.readerMB * device.MB },
			func(step int, start, ioTime, bytes float64) {
				out.reads = append(out.reads, start, ioTime, float64(dev.ActiveFlows()))
			})
	})
	if err := eng.Run(sc.horizon); err != nil {
		t.Fatal(err)
	}
	for _, n := range sc.noise {
		out.written = append(out.written, node.Cgroups().Lookup(n.Name).BytesWritten())
	}
	out.total, out.busy, out.now, out.pending = dev.TotalBytes(), dev.BusyTime(), eng.Now(), eng.Pending()
	return out
}

// TestCallbackMatchesProcessLoop: over seeded scenarios the callback
// interferer leaves every float bit and the event queue exactly where the
// process loop it replaced left them — same-instant events included,
// since it arms each of its events where the process armed one.
func TestCallbackMatchesProcessLoop(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	// Seed 0 is a tie drawn by hand: a back-to-back writer and the reader
	// move the same bytes at the same rate from the same instant, so both
	// end in one reshape, the writer first. The next checkpoint must be in
	// flight when the reader wakes, as it was with the process.
	tie := equivScenario{
		dev:      device.Params{Name: "zero-latency", PeakBandwidth: 100 * device.MB, MinEfficiency: 1},
		noise:    []Noise{{Name: "nz0", Period: 0.25, CheckpointBytes: 30 * device.MB}},
		launchAt: []float64{0},
		weights:  []int{blkio.DefaultWeight},
		readerMB: 30,
		horizon:  300,
	}
	var backToBack, stuck, later, zeroReads int
	for seed := int64(0); seed <= 400; seed++ {
		sc := tie
		if seed > 0 {
			sc = drawScenario(seed)
		}
		want := runScenario(t, sc, launchNoiseReference)
		got := runScenario(t, sc, LaunchValidNoise)
		fail := func(what string, w, g any) {
			t.Fatalf("seed %d: %s: callback %v, process loop %v (scenario %+v)", seed, what, g, w, sc)
		}
		for i := range want.written {
			if !same(want.written[i], got.written[i]) {
				fail("bytes written by "+sc.noise[i].Name, want.written[i], got.written[i])
			}
		}
		if !same(want.total, got.total) || !same(want.busy, got.busy) {
			fail("device total bytes / busy time", [2]float64{want.total, want.busy}, [2]float64{got.total, got.busy})
		}
		if len(want.reads) != len(got.reads) {
			fail("reader steps", len(want.reads)/3, len(got.reads)/3)
		}
		for i := range want.reads {
			if !same(want.reads[i], got.reads[i]) {
				fail(fmt.Sprintf("reader step %d (start, io, flows)", i/3), want.reads[i/3*3:i/3*3+3], got.reads[i/3*3:i/3*3+3])
			}
		}
		if !same(want.now, got.now) || want.pending != got.pending {
			fail("now / pending", [2]any{want.now, want.pending}, [2]any{got.now, got.pending})
		}
		for _, n := range sc.noise {
			if n.CheckpointBytes/sc.dev.PeakBandwidth > n.Period {
				backToBack++
			}
		}
		for _, f := range sc.faults {
			if f.bw == 0 {
				stuck++
			}
		}
		later += got.launchedLater
		if sc.readerMB == 0 {
			zeroReads++
		}
	}
	// The draw covers what the comparison is for.
	if backToBack == 0 || stuck == 0 || later == 0 || zeroReads == 0 {
		t.Fatalf("draw missed a case: %d back-to-back writers, %d stuck windows, %d later launches, %d zero-byte readers", backToBack, stuck, later, zeroReads)
	}
}

// TestCheckpointSteadyStateZeroAlloc: once the event and flow freelists
// are warm, a run window full of checkpoints (with jitter, back-to-back
// and spaced ones) allocates nothing.
func TestCheckpointSteadyStateZeroAlloc(t *testing.T) {
	n, hdd := newTestNode()
	LaunchNoise(n, hdd, Noise{Name: "spaced", Period: 20, CheckpointBytes: 100 * device.MB, Phase: 3, Jitter: 0.1, Seed: 7})
	LaunchNoise(n, hdd, Noise{Name: "overrun", Period: 5, CheckpointBytes: 300 * device.MB, Seed: 8})
	eng := n.Engine()
	if err := eng.Run(1000); err != nil {
		t.Fatal(err)
	}
	before := n.Container("spaced").Cgroup().BytesWritten()
	if allocs := testing.AllocsPerRun(50, func() {
		if err := eng.Run(eng.Now() + 100); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("%v objects per 100 s of checkpoints, want 0", allocs)
	}
	if n.Container("spaced").Cgroup().BytesWritten() == before {
		t.Fatal("no checkpoint in the measured windows")
	}
}

// TestLaunchNoiseRejectsBadNoise: a Noise that fails Validate panics at
// launch, before anything is scheduled, as device.New does on bad Params.
func TestLaunchNoiseRejectsBadNoise(t *testing.T) {
	good := Noise{Name: "nz", Period: 60, CheckpointBytes: device.MB}
	for _, mut := range []func(*Noise){
		func(n *Noise) { n.Period = 0 },
		func(n *Noise) { n.Period = math.Inf(1) },
		func(n *Noise) { n.Period = math.NaN() },
		func(n *Noise) { n.CheckpointBytes = math.NaN() },
		func(n *Noise) { n.CheckpointBytes = math.Inf(1) },
		func(n *Noise) { n.CheckpointBytes = -1 },
		func(n *Noise) { n.Phase = -1 },
		func(n *Noise) { n.Phase = math.NaN() },
		func(n *Noise) { n.Jitter = 1 },
		func(n *Noise) { n.Jitter = -0.1 },
		func(n *Noise) { n.Jitter = math.NaN() },
	} {
		bad := good
		mut(&bad)
		if bad.Validate() == nil {
			t.Errorf("%+v validates", bad)
			continue
		}
		node, hdd := newTestNode()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LaunchNoise(%+v) did not panic", bad)
				}
			}()
			LaunchNoise(node, hdd, bad)
		}()
		if node.Engine().Pending() != 0 || node.Container("nz") != nil {
			t.Errorf("LaunchNoise(%+v) left an event or a container behind", bad)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTableSeedsDrawTheSourceSequence: an interferer on a Table IV seed
// draws what rand.NewSource(seed) draws, through the table and 3,000 draws
// on, past it; any other seed has no table and draws from its own source.
func TestTableSeedsDrawTheSourceSequence(t *testing.T) {
	for _, n := range append(PaperNoiseSet(), Noise{Name: "other", Seed: 7}) {
		x := &interferer{n: n, draws: paperDraws()[n.Seed]}
		if tabled := n.Name != "other"; tabled != (len(x.draws) == tabledDraws) {
			t.Fatalf("%s (seed %d): %d tabled draws", n.Name, n.Seed, len(x.draws))
		}
		ref := rand.New(rand.NewSource(n.Seed))
		for i := 0; i < 3000; i++ {
			if got, want := x.draw(), ref.Float64(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s (seed %d) draw %d: %v, want %v", n.Name, n.Seed, i, got, want)
			}
		}
	}
}

// TestPaperRowsShareDrawTables: eight scenarios, each launching all six
// Table IV rows, run on runpool four wide from fresh tables, so the first
// draws race to build them (a -race check of their publication). Each run
// is long enough for noise6 to draw past its table, and each ends where
// the process-loop reference ends, to the bit.
func TestPaperRowsShareDrawTables(t *testing.T) {
	run := func(launch func(*container.Node, *device.Device, Noise) (*container.Container, *Handle)) []float64 {
		node, hdd := newTestNode()
		for _, n := range PaperNoiseSet() {
			launch(node, hdd, n)
		}
		err := node.Engine().Run(130_000)
		out := []float64{hdd.TotalBytes(), hdd.BusyTime(), float64(node.Engine().Pending())}
		for _, n := range PaperNoiseSet() {
			out = append(out, node.Cgroups().Lookup(n.Name).BytesWritten())
		}
		if err != nil {
			out = nil
		}
		return out
	}
	want := run(launchNoiseReference)
	if noise6 := PaperNoiseSet()[5]; want[3+5] <= tabledDraws*noise6.CheckpointBytes {
		t.Fatalf("noise6 wrote %v bytes: fewer than %d checkpoints, so it never drew past its table", want[3+5], tabledDraws+1)
	}
	paperDraws = sync.OnceValue(tabulatePaperDraws)
	defer runpool.SetWorkers(runpool.Workers())
	runpool.SetWorkers(4)
	tasks := make([]*runpool.Task[[]float64], 8)
	for i := range tasks {
		tasks[i] = runpool.Submit(fmt.Sprint("paper", i), func() []float64 { return run(LaunchValidNoise) })
	}
	for i, task := range tasks {
		got := task.Wait()
		if len(got) != len(want) {
			t.Fatalf("scenario %d: outcome %v, want %v", i, got, want)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("scenario %d: outcome %v, want %v", i, got, want)
			}
		}
	}
}
