package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"tango/internal/device"
)

func TestParseTrace(t *testing.T) {
	in := `# comment
10,1000,w
5, 500 ,r

20,2000
`
	ops, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 {
		t.Fatalf("ops = %d", len(ops))
	}
	// Sorted by time.
	if ops[0].T != 5 || !ops[0].Read || ops[0].Bytes != 500 {
		t.Fatalf("op0 = %+v", ops[0])
	}
	if ops[1].T != 10 || ops[1].Read {
		t.Fatalf("op1 = %+v", ops[1])
	}
	if ops[2].T != 20 || ops[2].Bytes != 2000 {
		t.Fatalf("op2 = %+v", ops[2])
	}
}

// TestParseTraceErrors is the rejection table: every bad line is an error
// naming its line number and what is wrong with it. NaN and ±Inf used to
// parse, and a trace of them replayed as "bytes served: 0.0 GB".
func TestParseTraceErrors(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"x,100", `line 1: bad time "x"`},
		{"5,y", `line 1: bad bytes "y"`},
		{"5,100,z", `line 1: bad direction "z"`},
		{"5", "line 1: want time,bytes"},
		{"5,100,w,extra", "line 1: want time,bytes"},
		{"-1,100", `line 1: bad time "-1"`},
		{"5,-100", `line 1: bad bytes "-100"`},
		{"# header\nNaN,1e6,w", `trace line 2: bad time "NaN"`},
		{"5,+Inf,w", `line 1: bad bytes "+Inf"`},
		{"Inf,1", `line 1: bad time "Inf"`},
		{"5,NaN", `line 1: bad bytes "NaN"`},
		{"-Inf,1", `line 1: bad time "-Inf"`},
		{"1e400,1", `line 1: bad time "1e400"`},
	} {
		_, err := ParseTrace(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseTrace(%q): error %v, want one containing %q", tc.in, err, tc.want)
		}
	}
}

// FuzzParseTrace: ParseTrace never panics; it accepts only ops with a
// finite T ≥ 0 and Bytes ≥ 0, sorted by T; and WriteTrace of what it
// accepted parses back to the same ops, bit for bit.
func FuzzParseTrace(f *testing.F) {
	// The inputs tangotrace once crashed on or replayed as garbage: no
	// ops, NaN and +Inf, a negative read, a negative time. Then a valid
	// trace in every accepted form.
	for _, seed := range []string{
		"# time_seconds,bytes,direction\n",
		"# time_seconds,bytes,direction\nNaN,1e6,w\n5,+Inf,w\n",
		"0,-5242880,r\n",
		"# time_seconds,bytes,direction\n0,1e9,w\n-1,1e9,w\n",
		"# comment\n10,1000,w\n5, 500 ,r\n\n20,2000\n-0,0x1p-2,\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		ops, err := ParseTrace(strings.NewReader(in))
		if err != nil {
			return
		}
		for i, op := range ops {
			if !finiteNonNeg(op.T) || !finiteNonNeg(op.Bytes) {
				t.Fatalf("accepted op %d = %+v", i, op)
			}
			if i > 0 && op.T < ops[i-1].T {
				t.Fatalf("ops %d and %d out of order: %v > %v", i-1, i, ops[i-1].T, op.T)
			}
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, ops); err != nil {
			t.Fatal(err)
		}
		back, err := ParseTrace(&buf)
		if err != nil {
			t.Fatalf("written trace does not parse: %v\n%s", err, buf.String())
		}
		if len(back) != len(ops) {
			t.Fatalf("round trip: %d ops, want %d", len(back), len(ops))
		}
		for i := range ops {
			a, b := ops[i], back[i]
			if math.Float64bits(a.T) != math.Float64bits(b.T) || math.Float64bits(a.Bytes) != math.Float64bits(b.Bytes) || a.Read != b.Read {
				t.Fatalf("round trip op %d: %+v, want %+v", i, b, a)
			}
		}
	})
}

func TestTraceRoundTrip(t *testing.T) {
	ops := []TraceOp{{T: 1, Bytes: 100}, {T: 2.5, Bytes: 200, Read: true}}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, ops); err != nil {
		t.Fatal(err)
	}
	got, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != ops[0] || got[1] != ops[1] {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestReplayMatchesLaunchNoise(t *testing.T) {
	// A synthesized trace of a jitter-free noise must produce the same
	// device activity as LaunchNoise with Jitter=0 (periods are long
	// enough that checkpoints never overrun).
	spec := Noise{Name: "nz", Period: 100, CheckpointBytes: 10 * device.MB, Phase: 7}
	runLive := func() float64 {
		n, hdd := newTestNode()
		LaunchNoise(n, hdd, spec)
		if err := n.Engine().Run(1000); err != nil {
			t.Fatal(err)
		}
		return n.Container("nz").Cgroup().BytesWritten()
	}
	runReplay := func() float64 {
		n, hdd := newTestNode()
		ops := SynthesizeTrace(spec, 10)
		ReplayTrace(n, hdd, "rp", ops)
		if err := n.Engine().Run(1000); err != nil {
			t.Fatal(err)
		}
		return n.Container("rp").Cgroup().BytesWritten()
	}
	if a, b := runLive(), runReplay(); a != b {
		t.Fatalf("live %v vs replay %v", a, b)
	}
}

func TestReplayOpenLoopCatchesUp(t *testing.T) {
	// Ops scheduled faster than the device can serve must be issued
	// back-to-back, not dropped.
	n, hdd := newTestNode() // 100 MB/s
	ops := []TraceOp{
		{T: 0, Bytes: 500 * device.MB}, // takes 5s
		{T: 1, Bytes: 500 * device.MB}, // arrives during op 1
		{T: 2, Bytes: 500 * device.MB}, // ditto
	}
	c := ReplayTrace(n, hdd, "rp", ops)
	if err := n.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := c.Cgroup().BytesWritten(); got != 1500*float64(device.MB) {
		t.Fatalf("bytes = %v", got)
	}
	if now := n.Engine().Now(); now < 14.9 || now > 15.5 {
		t.Fatalf("replay finished at %v, want ~15s", now)
	}
}

func TestSynthesizeTraceShape(t *testing.T) {
	ops := SynthesizeTrace(Noise{Period: 60, CheckpointBytes: 42, Phase: 3}, 4)
	if len(ops) != 4 {
		t.Fatalf("ops = %d", len(ops))
	}
	for i, op := range ops {
		if op.T != 3+float64(i)*60 || op.Bytes != 42 || op.Read {
			t.Fatalf("op %d = %+v", i, op)
		}
	}
}
