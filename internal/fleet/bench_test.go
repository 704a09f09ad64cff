package fleet

import (
	"fmt"
	"testing"

	"tango/internal/objstore"
	"tango/internal/sim"
)

// BenchmarkFleetEpoch measures one full cluster run at a small fixed
// shape — the end-to-end cost of barriers + parallel windows.
func BenchmarkFleetEpoch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := New(Config{Nodes: 4, Sessions: 32, Seed: 7, Epochs: 4})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetPlace measures cluster construction alone — nodes,
// session population, the heap placement pass and each node's cgroup and
// coordinator attach — at a mid shape and at the fleet benchmark's 1000
// nodes and 100,000 sessions.
func BenchmarkFleetPlace(b *testing.B) {
	for _, shape := range []struct{ nodes, sessions int }{{64, 4096}, {1000, 100_000}} {
		b.Run(fmt.Sprintf("%dx%d", shape.nodes, shape.sessions), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(Config{Nodes: shape.nodes, Sessions: shape.sessions, Seed: 7}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFleetBarrier1000 measures the barrier-only control plane at
// fleet scale: the shared-egress reshare plus a placement-score forecast
// sweep (heap push/pop with a DFT forecast per node) over 1000 nodes
// with warm estimators. The whole pass must be allocation-free — this is
// the loop every epoch serializes on, and the reason Fit/Predict carry
// //tango:hotpath and the barrier emits are nil-recorder guarded.
func BenchmarkFleetBarrier1000(b *testing.B) {
	c, err := New(Config{Nodes: 1000, Sessions: 10000, Seed: 7, Epochs: 2})
	if err != nil {
		b.Fatal(err)
	}
	nodeBW := c.obj.NodeBandwidth
	for _, nd := range c.nodes {
		for k := 0; k < 8; k++ {
			nd.est.Observe(float64(50+k%5) * mb)
		}
		if err := nd.est.Fit(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.reshare(0, nodeBW)
		c.heap = c.heap[:0]
		for _, nd := range c.nodes {
			if nd.alive {
				c.heap.push(nd.idx, nd.predictFrac(nodeBW)+nd.load)
			}
		}
		for len(c.heap) > 0 {
			c.heap.pop()
		}
	}
}

// BenchmarkObjstoreReshare measures the shared-egress water-filling pass
// across a large fleet — the per-barrier hot loop.
func BenchmarkObjstoreReshare(b *testing.B) {
	const n = 1024
	s := objstore.New(objstore.Default(n))
	demands := make([]float64, n)
	for i := range demands {
		s.Attach(sim.NewEngine())
		demands[i] = float64(i%17) * 16 * 1024 * 1024
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reshare(demands)
	}
}
