package fault

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"tango/internal/container"
	"tango/internal/device"
	"tango/internal/sim"
	"tango/internal/trace"
	"tango/internal/workload"
)

const spec = "bw-collapse@900:dev=hdd,factor=0.2,dur=120; read-err@1500:dev=hdd,dur=45; " +
	"weight-fail@600:cg=analytics,dur=180; join@1800:name=noise7,period=90,mb=512; " +
	"leave@2400:name=noise1; period@3000:name=noise2,period=75"

func TestParseRoundTrip(t *testing.T) {
	p, err := ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 6 {
		t.Fatalf("events = %d", len(p.Events))
	}
	p2, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", p.String(), err)
	}
	if p.String() != p2.String() {
		t.Fatalf("round trip drifted:\n%s\n%s", p, p2)
	}
}

// TestSpellingsGolden pins the grammar's bytes, which the round trip
// cannot (a key misspelt the same way in String and ParsePlan passes
// it): a plan of all ten kinds and one value no kind has, the
// unknown-kind error naming every kind, and the name of such a value.
func TestSpellingsGolden(t *testing.T) {
	p := &Plan{Events: []Event{
		{At: 900, Kind: BWCollapse, Target: "hdd", Factor: 0.2, Duration: 120},
		{At: 100, Kind: LatencySpike, Target: "ssd", Factor: 0.05, Duration: 30},
		{At: 1500, Kind: ReadError, Target: "hdd", Duration: 45},
		{At: 200, Kind: Stuck, Target: "hdd", Duration: 10},
		{At: 600, Kind: WeightFail, Target: "analytics", Duration: 180},
		{At: 700, Kind: ThrottleReset, Target: "analytics", Factor: 40, Duration: 60},
		{At: 1800, Kind: Join, Target: "noise7", Noise: workload.Noise{Name: "noise7", Period: 90, CheckpointBytes: 512 * mb, Phase: 5, Jitter: 0.08, Seed: 11}},
		{At: 2400, Kind: Leave, Target: "noise1"},
		{At: 3000, Kind: PeriodChange, Target: "noise2", Factor: 75},
		{At: 50, Kind: NodeKill, Target: "node3", Duration: 60},
		{At: 5, Kind: Kind(99), Target: "x", Factor: 3, Duration: 2},
	}}
	_, err := ParsePlan("bogus@1:dev=hdd")
	for _, c := range []struct{ got, want string }{
		{p.String(), "Kind(?)@5:name=x; node-kill@50:node=node3,dur=60; latency@100:dev=ssd,add=0.05,dur=30; " +
			"stuck@200:dev=hdd,dur=10; weight-fail@600:cg=analytics,dur=180; throttle-reset@700:cg=analytics,mb=40,dur=60; " +
			"bw-collapse@900:dev=hdd,factor=0.2,dur=120; read-err@1500:dev=hdd,dur=45; " +
			"join@1800:name=noise7,period=90,mb=512,phase=5,jitter=0.08,seed=11; leave@2400:name=noise1; " +
			"period@3000:name=noise2,period=75"},
		{fmt.Sprint(err), `fault: unknown kind "bogus" (want one of ` +
			"bw-collapse|latency|read-err|stuck|weight-fail|throttle-reset|join|leave|period|node-kill)"},
		{Kind(-1).String(), "Kind(?)"},
		{Kind(99).String(), "Kind(?)"},
	} {
		if c.got != c.want {
			t.Errorf("got\n\t%s\nwant\n\t%s", c.got, c.want)
		}
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	bad := []string{
		"",
		"explode@10:dev=hdd,dur=5",              // unknown kind
		"bw-collapse@10:dev=hdd,dur=5",          // missing factor
		"bw-collapse@10:dev=hdd,factor=2,dur=5", // factor out of range
		"bw-collapse@10:factor=0.5,dur=5",       // missing target
		"stuck@10:dev=hdd",                      // windowed kind without duration
		"join@10:name=x,period=60",              // join without mb
		"leave@10:name=x,bogus=1",               // unknown param
		"bw-collapse@ten:dev=hdd,factor=0.5,dur=5",
	}
	for _, s := range bad {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("spec %q accepted", s)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	opts := GenerateOptions{
		Horizon: 3600, Device: "hdd", Cgroup: "analytics",
		Interferers: []string{"noise1", "noise2"}, Events: 9,
	}
	a, err := Generate(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	c, err := Generate(8, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical plans")
	}
	if len(a.Events) != 9 {
		t.Fatalf("events = %d", len(a.Events))
	}
	// Generated plans round-trip through the spec grammar.
	if _, err := ParsePlan(a.String()); err != nil {
		t.Fatalf("generated plan does not re-parse: %v", err)
	}
}

func testNode(t *testing.T) *container.Node {
	t.Helper()
	node := container.NewNode("faulttest")
	node.MustAddDevice(device.SSD("ssd"))
	node.MustAddDevice(device.HDD("hdd"))
	return node
}

func TestInjectorDeviceFaultWindowsCompose(t *testing.T) {
	node := testNode(t)
	rec := trace.New(256)
	plan := &Plan{Events: []Event{
		{At: 10, Kind: BWCollapse, Target: "hdd", Factor: 0.5, Duration: 20},
		{At: 15, Kind: BWCollapse, Target: "hdd", Factor: 0.2, Duration: 10},
	}}
	in := NewInjector(node, rec, plan)
	if err := in.Arm(); err != nil {
		t.Fatal(err)
	}
	dev := node.Device("hdd")
	check := func(at float64, want bool) {
		node.Engine().At(at, func() {
			if dev.Faulted() != want {
				t.Errorf("t=%g: Faulted() = %v, want %v", at, dev.Faulted(), want)
			}
		})
	}
	check(5, false)
	check(12, true)  // first window open
	check(20, true)  // overlap
	check(27, true)  // second cleared, first still open
	check(35, false) // both cleared
	if err := node.Engine().Run(100); err != nil {
		t.Fatal(err)
	}
	if in.Injected() != 2 || in.Cleared() != 2 || in.Skipped() != 0 {
		t.Fatalf("counts = %d/%d/%d", in.Injected(), in.Cleared(), in.Skipped())
	}
	if got := len(rec.Filter(trace.KindFault)); got != 4 {
		t.Fatalf("fault events = %d, want 4 (2 inject + 2 clear)", got)
	}
}

func TestInjectorReadErrorWindow(t *testing.T) {
	node := testNode(t)
	plan := &Plan{Events: []Event{{At: 10, Kind: ReadError, Target: "hdd", Duration: 20}}}
	in := NewInjector(node, nil, plan)
	if err := in.Arm(); err != nil {
		t.Fatal(err)
	}
	dev := node.Device("hdd")
	var during, after error
	node.MustLaunch("reader", func(c *container.Container, p *sim.Proc) {
		p.Sleep(15)
		_, during = dev.TryReadCancel(p, c.Cgroup(), 1024, nil, 0)
		p.Sleep(30)
		_, after = dev.TryReadCancel(p, c.Cgroup(), 1024, nil, 0)
	})
	if err := node.Engine().Run(100); err != nil {
		t.Fatal(err)
	}
	if during == nil {
		t.Fatal("read inside the window succeeded")
	}
	if after != nil {
		t.Fatalf("read after the window failed: %v", after)
	}
}

func TestInjectorWeightFailWindow(t *testing.T) {
	node := testNode(t)
	node.MustLaunch("analytics", func(c *container.Container, p *sim.Proc) { p.Sleep(50) })
	plan := &Plan{Events: []Event{{At: 10, Kind: WeightFail, Target: "analytics", Duration: 10}}}
	in := NewInjector(node, nil, plan)
	if err := in.Arm(); err != nil {
		t.Fatal(err)
	}
	cg := node.Cgroups().Lookup("analytics")
	node.Engine().At(15, func() {
		if err := cg.TrySetWeight(500); err == nil {
			t.Error("weight write inside the window succeeded")
		}
	})
	node.Engine().At(25, func() {
		if err := cg.TrySetWeight(500); err != nil {
			t.Errorf("weight write after the window failed: %v", err)
		}
	})
	if err := node.Engine().Run(100); err != nil {
		t.Fatal(err)
	}
	if cg.Weight() != 500 {
		t.Fatalf("weight = %d", cg.Weight())
	}
}

func TestInjectorSkipsMissingTargets(t *testing.T) {
	node := testNode(t)
	rec := trace.New(64)
	plan := &Plan{Events: []Event{
		{At: 5, Kind: WeightFail, Target: "ghost", Duration: 10},
		{At: 6, Kind: Leave, Target: "ghost"},
	}}
	in := NewInjector(node, rec, plan)
	if err := in.Arm(); err != nil {
		t.Fatal(err)
	}
	if err := node.Engine().Run(50); err != nil {
		t.Fatal(err)
	}
	if in.Skipped() != 2 || in.Injected() != 0 {
		t.Fatalf("skipped = %d injected = %d", in.Skipped(), in.Injected())
	}
}

func TestInjectorUnknownDeviceRejectedAtArm(t *testing.T) {
	node := testNode(t)
	plan := &Plan{Events: []Event{{At: 5, Kind: Stuck, Target: "nvme", Duration: 1}}}
	if err := NewInjector(node, nil, plan).Arm(); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestInjectorChurn(t *testing.T) {
	node := testNode(t)
	hdd := node.Device("hdd")
	noises := workload.LaunchNoiseSetControlled(node, hdd, []workload.Noise{
		{Name: "n1", Period: 30, CheckpointBytes: device.MB, Seed: 1},
		{Name: "n2", Period: 30, CheckpointBytes: device.MB, Seed: 2},
	})
	plan := &Plan{Events: []Event{
		{At: 40, Kind: Leave, Target: "n1"},
		{At: 40, Kind: PeriodChange, Target: "n2", Factor: 75},
		{At: 50, Kind: Join, Target: "extra", Noise: workload.Noise{
			Name: "extra", Period: 60, CheckpointBytes: device.MB, Seed: 3,
		}},
	}}
	in := NewInjector(node, nil, plan)
	in.RegisterNoise(noises)
	if err := in.Arm(); err != nil {
		t.Fatal(err)
	}
	// The checkpoints are 1 MB, long finished by t=45.
	n1, n2 := node.Cgroups().Lookup("n1"), node.Cgroups().Lookup("n2")
	var n1At45, n2At45 float64
	node.Engine().At(45, func() { n1At45, n2At45 = n1.BytesWritten(), n2.BytesWritten() })
	if err := node.Engine().Run(200); err != nil {
		t.Fatal(err)
	}
	if got := n1.BytesWritten(); got != n1At45 {
		t.Fatalf("leave did not stop the interferer: %v bytes at t=45, %v at t=200", n1At45, got)
	}
	if got := n2.BytesWritten(); got <= n2At45 {
		t.Fatalf("period change stopped the interferer: %v bytes at t=45, %v at t=200", n2At45, got)
	}
	if node.Container("extra") == nil {
		t.Fatal("join did not launch the interferer")
	}
	if in.Injected() != 3 {
		t.Fatalf("injected = %d", in.Injected())
	}
}

func TestUnpaired(t *testing.T) {
	evs := []trace.Event{
		{T: 10, Kind: trace.KindFault, Format: "inject id=0 kind=stuck dev=hdd"},
		{T: 12, Kind: trace.KindRecover, Format: "retry dev=hdd attempt=1"},
		{T: 20, Kind: trace.KindFault, Format: "inject id=1 kind=leave name=n1"},
		{T: 21, Kind: trace.KindFault, Format: "clear id=0 kind=stuck dev=hdd"},
	}
	up := Unpaired(evs)
	if len(up) != 1 || !strings.Contains(up[0].Msg(), "id=1") {
		t.Fatalf("unpaired = %+v", up)
	}
	evs = append(evs, trace.Event{T: 30, Kind: trace.KindRefit, Format: "regime change"})
	if got := Unpaired(evs); len(got) != 0 {
		t.Fatalf("unpaired after refit = %+v", got)
	}
}

func TestNodeKillParseRoundTrip(t *testing.T) {
	p, err := ParsePlan("node-kill@120:node=node3,dur=180")
	if err != nil {
		t.Fatal(err)
	}
	e := p.Events[0]
	if e.Kind != NodeKill || e.Target != "node3" || e.At != 120 || e.Duration != 180 {
		t.Fatalf("parsed %+v", e)
	}
	if got := p.String(); got != "node-kill@120:node=node3,dur=180" {
		t.Fatalf("round trip: %q", got)
	}
	if _, err := ParsePlan("node-kill@120:node=node3"); err == nil {
		t.Fatal("node-kill without dur should be rejected (windowed)")
	}
}

func TestInjectorSkipsNodeKill(t *testing.T) {
	node := container.NewNode("n")
	eng := node.Engine()
	node.MustAddDevice(device.HDD("hdd"))
	rec := trace.New(64)
	plan, err := ParsePlan("node-kill@10:node=node0,dur=60")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(node, rec, plan)
	if err := in.Arm(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	if in.Skipped() != 1 || in.Injected() != 0 {
		t.Fatalf("skipped=%d injected=%d, want 1/0 (node kills are cluster-level)", in.Skipped(), in.Injected())
	}
}

// TestInjectorTraceGolden pins the text of every message the injector
// records — one plan crossing every kind's inject, clear and skip arms —
// so the runbooks that grep them survive refactors of the emit path.
func TestInjectorTraceGolden(t *testing.T) {
	node := testNode(t)
	handles := workload.LaunchNoiseSetControlled(node, node.Device("hdd"), workload.PaperNoiseSet()[:1])
	node.MustLaunch("analytics", func(c *container.Container, p *sim.Proc) { p.Sleep(500) })
	cg := node.Cgroups().Lookup("analytics")
	cg.SetReadBpsLimit(7 * mb)
	rec := trace.New(64)
	plan := &Plan{Events: []Event{
		{At: 1, Kind: BWCollapse, Target: "hdd", Factor: 0.25, Duration: 4},
		{At: 2, Kind: LatencySpike, Target: "ssd", Factor: 0.5, Duration: 1},
		{At: 3, Kind: Stuck, Target: "hdd", Duration: 1.5},
		{At: 4, Kind: ReadError, Target: "hdd", Duration: 2},
		{At: 10, Kind: WeightFail, Target: "analytics", Duration: 5},
		{At: 11, Kind: WeightFail, Target: "ghost", Duration: 5},
		{At: 12, Kind: ThrottleReset, Target: "analytics", Factor: 3, Duration: 2},
		{At: 20, Kind: Join, Target: "late", Noise: workload.Noise{Name: "late", Period: 90, CheckpointBytes: 64 * mb}},
		{At: 21, Kind: Join, Target: "late", Noise: workload.Noise{Name: "late", Period: 90, CheckpointBytes: 64 * mb}},
		{At: 22, Kind: PeriodChange, Target: "noise1", Factor: 45},
		{At: 23, Kind: Leave, Target: "noise1"},
		{At: 24, Kind: Leave, Target: "nobody"},
		{At: 25, Kind: NodeKill, Target: "node3", Duration: 9},
	}}
	in := NewInjector(node, rec, plan)
	in.RegisterNoise(handles)
	if err := in.Arm(); err != nil {
		t.Fatal(err)
	}
	node.Engine().At(13, func() {
		if cg.ReadBpsLimit() != 3*mb {
			t.Errorf("throttle inside the reset window = %v", cg.ReadBpsLimit())
		}
	})
	if err := node.Engine().Run(40); err != nil {
		t.Fatal(err)
	}
	if cg.ReadBpsLimit() != 7*mb || cg.WeightFailing() || node.Device("hdd").Faulted() || node.Device("hdd").ReadErrorActive() {
		t.Error("a window did not restore what it found")
	}
	var got []string
	for _, ev := range rec.Filter(trace.KindFault) {
		got = append(got, fmt.Sprintf("%g %s %s", ev.T, ev.Source, ev.Msg()))
	}
	want := []string{
		"1 injector inject id=0 kind=bw-collapse dev=hdd factor=0.25 dur=4",
		"2 injector inject id=1 kind=latency dev=ssd factor=0.5 dur=1",
		"3 injector inject id=2 kind=stuck dev=hdd factor=0 dur=1.5",
		"3 injector clear id=1 kind=latency dev=ssd",
		"4 injector inject id=3 kind=read-err dev=hdd factor=0 dur=2",
		"4.5 injector clear id=2 kind=stuck dev=hdd",
		"5 injector clear id=0 kind=bw-collapse dev=hdd",
		"6 injector clear id=3 kind=read-err dev=hdd",
		"10 injector inject id=4 kind=weight-fail cg=analytics dur=5",
		"11 injector skip id=5 kind=weight-fail cg=ghost (no such cgroup)",
		"12 injector inject id=6 kind=throttle-reset cg=analytics mb=3 dur=2",
		"14 injector clear id=6 kind=throttle-reset cg=analytics",
		"15 injector clear id=4 kind=weight-fail cg=analytics",
		"20 injector inject id=7 kind=join name=late period=90 mb=64",
		"21 injector skip id=8 kind=join name=late (already running)",
		"22 injector inject id=9 kind=period name=noise1 period=45",
		"23 injector inject id=10 kind=leave name=noise1",
		"24 injector skip id=11 kind=leave name=nobody (no such interferer)",
		"25 injector skip id=12 kind=node-kill node=node3 (no cluster)",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("trace:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if in.Injected() != 9 || in.Cleared() != 6 || in.Skipped() != 4 {
		t.Fatalf("counts = %d/%d/%d, want 9/6/4", in.Injected(), in.Cleared(), in.Skipped())
	}
}

// TestInjectorRecordBoxesNothingUntraced: with no recorder, counting an
// event costs no allocation — record's arguments are typed, so nothing
// is boxed for a message nobody reads.
func TestInjectorRecordBoxesNothingUntraced(t *testing.T) {
	in := NewInjector(testNode(t), nil, &Plan{Events: []Event{{At: 1, Kind: Stuck, Target: "hdd", Duration: 1}}})
	tm := &timer{in: in, id: 3, e: Event{Kind: BWCollapse, Target: "hdd", Factor: 0.3, Duration: 12.5}}
	if n := testing.AllocsPerRun(100, func() {
		in.record(&in.injected, tm, "inject id=%d kind=%s dev=%s factor=%g dur=%g", tm.e.Factor, tm.e.Duration)
	}); n != 0 {
		t.Fatalf("record allocates %.1f objects/op with a nil recorder, want 0", n)
	}
	if in.Injected() != 101 {
		t.Fatalf("injected = %d after 101 calls", in.Injected())
	}
}

// nonFiniteSpecs reached the simulator before their values were checked:
// panics, a run that printed zeros, a fault that changed nothing. Each is
// now an error naming its event.
var nonFiniteSpecs = []struct{ spec, names string }{
	{"latency@10:dev=hdd,add=NaN,dur=5", `latency@10 on "hdd"`},
	{"latency@10:dev=hdd,add=Inf,dur=5", `latency@10 on "hdd"`},
	{"bw-collapse@10:dev=hdd,factor=NaN,dur=5", `bw-collapse@10 on "hdd"`},
	{"bw-collapse@Inf:dev=hdd,factor=0.5,dur=5", `bw-collapse@+Inf on "hdd"`},
	{"stuck@10:dev=hdd,dur=Inf", `stuck@10 on "hdd"`},
	{"throttle-reset@10:cg=analytics,mb=NaN,dur=5", `throttle-reset@10 on "analytics"`},
	{"period@10:name=noise2,period=Inf", `period@10 on "noise2"`},
	{"join@10:name=noise9,period=60,mb=NaN", `join@10 on "noise9"`},
	{"join@10:name=noise9,period=60,mb=Inf", `join@10 on "noise9"`},
	{"join@10:name=noise9,period=NaN,mb=64", `join@10 on "noise9"`},
	{"join@10:name=noise9,period=60,mb=64,jitter=NaN", `join@10 on "noise9"`},
	{"join@10:name=noise9,period=60,mb=64,jitter=1", `join@10 on "noise9"`},
	{"join@10:name=noise9,period=60,mb=64,phase=-1", `join@10 on "noise9"`},
	{"join@10:name=noise9,period=60,mb=64,seed=1.5", `join@10`},
	{"leave@10:name=noise1,dur=5", `leave@10`}, // String would drop the dur
}

// TestParseRejectsNonFiniteValues: every spec above is an error that
// names its event; the documented examples and generated plans are still
// accepted, and each re-parses from its String to the same plan.
func TestParseRejectsNonFiniteValues(t *testing.T) {
	for _, tc := range nonFiniteSpecs {
		if _, err := ParsePlan(tc.spec); err == nil || !strings.Contains(err.Error(), tc.names) {
			t.Errorf("ParsePlan(%q) = %v, want an error naming %s", tc.spec, err, tc.names)
		}
	}
	good := []string{
		spec,
		"bw-collapse@900:dev=hdd,factor=0.2,dur=120; read-err@1500:dev=hdd,dur=45; leave@2400:name=noise1",
		"join@10:name=x,period=60,mb=64,jitter=0,seed=0",
		"join@10:name=x,period=60,mb=64",
	}
	for seed := int64(1); seed <= 20; seed++ {
		p, err := Generate(seed, GenerateOptions{
			Horizon: 3600, Device: "hdd", Cgroup: "analytics",
			Interferers: []string{"noise1", "noise2"}, Events: 12,
		})
		if err != nil {
			t.Fatal(err)
		}
		good = append(good, p.String())
	}
	for _, s := range good {
		p, err := ParsePlan(s)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", s, err)
		}
		checkRoundTrip(t, p)
	}
	p, _ := ParsePlan("join@10:name=x,period=60,mb=64,jitter=0,seed=0")
	if n := p.Events[0].Noise; n.Jitter != 0 || n.Seed != 0 {
		t.Fatalf("jitter=0,seed=0 parsed as jitter %v, seed %d", n.Jitter, n.Seed)
	}
}

// checkRoundTrip: an accepted plan has only finite fields, and its String
// parses back to the same events (in the time order String writes them).
func checkRoundTrip(t *testing.T, p *Plan) {
	t.Helper()
	for _, e := range p.Events {
		for _, v := range []float64{e.At, e.Factor, e.Duration, e.Noise.Period, e.Noise.CheckpointBytes, e.Noise.Phase, e.Noise.Jitter} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted %+v with a non-finite field", e)
			}
		}
	}
	q, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("String %q does not re-parse: %v", p.String(), err)
	}
	if !reflect.DeepEqual(q.Events, p.Sorted()) {
		t.Fatalf("String %q re-parses to another plan:\n%+v\nwant\n%+v", p.String(), q.Events, p.Sorted())
	}
}

// FuzzParsePlan: ParsePlan returns a plan or an error, never panics, and
// what it accepts survives String → ParsePlan unchanged.
func FuzzParsePlan(f *testing.F) {
	f.Add(spec)
	for _, tc := range nonFiniteSpecs {
		f.Add(tc.spec)
	}
	f.Add("join@10:name=x,period=60,mb=64,jitter=0,seed=0")
	f.Add("node-kill@120:node=node3,dur=180; leave@-0:name=a=b; period@1e-300:name=c:d,period=0x1p-3")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePlan(s)
		if err != nil {
			return
		}
		checkRoundTrip(t, p)
	})
}
