package container

import (
	"testing"

	"tango/internal/device"
	"tango/internal/sim"
)

func testNode(t *testing.T) *Node {
	t.Helper()
	n := NewNode("node0")
	n.MustAddDevice(device.Params{Name: "ssd", PeakBandwidth: 500, MinEfficiency: 1})
	n.MustAddDevice(device.Params{Name: "hdd", PeakBandwidth: 100, MinEfficiency: 1})
	return n
}

func TestNodeDevices(t *testing.T) {
	n := testNode(t)
	if n.Device("ssd") == nil || n.Device("hdd") == nil {
		t.Fatal("devices missing")
	}
	if n.Device("nvme") != nil {
		t.Fatal("unexpected device")
	}
	tiers := n.Tiers()
	if len(tiers) != 2 || tiers[0].Name() != "ssd" || tiers[1].Name() != "hdd" {
		t.Fatalf("tiers = %v", tiers)
	}
}

func TestDuplicateDeviceRejected(t *testing.T) {
	n := testNode(t)
	if _, err := n.AddDevice(device.Params{Name: "ssd", PeakBandwidth: 1, MinEfficiency: 1}); err == nil {
		t.Fatal("duplicate device should fail")
	}
}

func TestLaunchAndIO(t *testing.T) {
	n := testNode(t)
	var elapsed float64
	n.MustLaunch("analytics", func(c *Container, p *sim.Proc) {
		elapsed = n.Device("hdd").Read(p, c.Cgroup(), 1000)
	})
	if err := n.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if elapsed != 10 {
		t.Fatalf("elapsed = %v, want 10", elapsed)
	}
	c := n.Container("analytics")
	if c == nil || c.Name() != "analytics" {
		t.Fatal("container lookup broken")
	}
	if c.Cgroup().BytesRead() != 1000 {
		t.Fatalf("cgroup read accounting = %v", c.Cgroup().BytesRead())
	}
	if n.Engine().LiveProcs() != 0 {
		t.Fatal("proc should be done")
	}
}

func TestDuplicateContainerRejected(t *testing.T) {
	n := testNode(t)
	n.MustLaunch("a", func(c *Container, p *sim.Proc) {})
	if _, err := n.Launch("a", func(c *Container, p *sim.Proc) {}); err == nil {
		t.Fatal("duplicate launch should fail")
	}
}

func TestSetWeightAffectsSharing(t *testing.T) {
	n := testNode(t)
	hdd := n.Device("hdd")
	var tHeavy, tLight float64
	n.MustLaunch("heavy", func(c *Container, p *sim.Proc) {
		c.SetWeight(900)
		tHeavy = hdd.Read(p, c.Cgroup(), 900)
	})
	n.MustLaunch("light", func(c *Container, p *sim.Proc) {
		tLight = hdd.Read(p, c.Cgroup(), 900)
	})
	if err := n.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if !(tHeavy < tLight) {
		t.Fatalf("heavy %v should beat light %v", tHeavy, tLight)
	}
}

func TestNodesAreIsolated(t *testing.T) {
	// Two nodes have independent engines and clocks.
	a, b := testNode(t), testNode(t)
	a.MustLaunch("x", func(c *Container, p *sim.Proc) { p.Sleep(100) })
	if err := a.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if a.Engine().Now() != 100 {
		t.Fatalf("node a clock = %v", a.Engine().Now())
	}
	if b.Engine().Now() != 0 {
		t.Fatalf("node b clock moved: %v", b.Engine().Now())
	}
	if a.Cgroups() == b.Cgroups() {
		t.Fatal("nodes share a cgroup controller")
	}
}

func TestContainerCgroupNameMatches(t *testing.T) {
	n := testNode(t)
	c := n.MustLaunch("myapp", func(c *Container, p *sim.Proc) {})
	if c.Cgroup().Name() != "myapp" {
		t.Fatalf("cgroup name = %q", c.Cgroup().Name())
	}
	if n.Cgroups().Lookup("myapp") != c.Cgroup() {
		t.Fatal("cgroup not registered with the node controller")
	}
}
