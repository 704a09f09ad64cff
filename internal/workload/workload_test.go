package workload

import (
	"math"
	"testing"

	"tango/internal/container"
	"tango/internal/device"
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
