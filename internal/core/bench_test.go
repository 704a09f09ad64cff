package core

import (
	"runtime"
	"testing"

	"tango/internal/container"
	"tango/internal/device"
	"tango/internal/refactor"
	"tango/internal/staging"
	"tango/internal/workload"
)

// BenchmarkSessionStep runs one node_quiet-shaped scenario per iteration —
// the paper's node (SSD + HDD, the first four Table IV interferers on the
// HDD), a CrossLayer session bounded at 1e-2 over a 513² hierarchy staged
// to 2048 MB, 600 steps — and reports the host time and the objects per
// session step. A CPU profile of it (-cpuprofile, then go tool pprof -top)
// attributes the step's cost to the layers it crosses.
func BenchmarkSessionStep(b *testing.B) {
	h := testHierarchy(b)
	steps := 0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ResetTimer()
	for range b.N {
		node, s := quietScenario(b, h)
		if err := node.Engine().Run(600*period + 600); err != nil {
			b.Fatal(err)
		}
		steps += len(s.Stats())
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(steps), "allocs/step")
}

// quietScenario builds BenchmarkSessionStep's node and launches its
// 600-step session over h staged to 2048 MB, without running the engine.
func quietScenario(tb testing.TB, h *refactor.Hierarchy) (*container.Node, *Session) {
	node := container.NewNode("bench")
	node.MustAddDevice(device.SSD("ssd"))
	hdd := node.MustAddDevice(device.HDD("hdd"))
	workload.LaunchNoiseSet(node, hdd, workload.FirstPaperNoise(4))
	st, err := staging.StageScaled(h, node.Tiers(), 2048*device.MB/float64(h.BaseBytes()+h.TotalAugBytes()))
	if err != nil {
		tb.Fatal(err)
	}
	s, err := NewSession("analytics", st, Config{Policy: CrossLayer, ErrorControl: true, Bound: 0.01, Steps: 600})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Launch(node); err != nil {
		tb.Fatal(err)
	}
	return node, s
}
