package fleet

import (
	"fmt"
	"testing"

	"tango/internal/fault"
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
// coordinator attach — at a mid shape, at the fleet benchmark's 1000
// nodes and 100,000 sessions, and at four times that.
func BenchmarkFleetPlace(b *testing.B) {
	for _, shape := range []struct{ nodes, sessions int }{{64, 4096}, {1000, 100_000}, {4000, 400_000}} {
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

// BenchmarkFleetSettle measures settle at the fleet benchmark's shape and
// at four times it, through the fleet benchmark's kill plan: per op, 1 %
// of the nodes are killed and their sessions placed cold on the
// survivors, settle evens the survivors out ("kill"), the killed nodes
// come back empty, and settle fills them ("revive"). Only the settle the
// case names is timed; each op kills the next 1 % of the nodes.
func BenchmarkFleetSettle(b *testing.B) {
	for _, shape := range []struct{ nodes, sessions int }{{1000, 100_000}, {4000, 400_000}} {
		for _, timed := range []string{"kill", "revive"} {
			b.Run(fmt.Sprintf("%s/%dx%d", timed, shape.nodes, shape.sessions), func(b *testing.B) {
				c, err := New(Config{Nodes: shape.nodes, Sessions: shape.sessions, Seed: 7, Plan: &fault.Plan{}})
				if err != nil {
					b.Fatal(err)
				}
				kills, moves := shape.nodes/100, 0
				settle := func(after string) {
					before := c.migrations
					if after == timed {
						b.StartTimer()
					}
					c.settle(0)
					b.StopTimer()
					if after == timed {
						moves += c.migrations - before
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				b.StopTimer()
				for i := 0; i < b.N; i++ {
					for k := i * kills; k < (i+1)*kills; k++ {
						c.place(c.kill(c.nodes[k%shape.nodes], 0), 0, "cold")
					}
					settle("kill")
					for k := i * kills; k < (i+1)*kills; k++ {
						c.nodes[k%shape.nodes] = c.buildNode(k%shape.nodes, false)
					}
					settle("revive")
				}
				b.ReportMetric(float64(moves)/float64(b.N), "moves/op")
			})
		}
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
