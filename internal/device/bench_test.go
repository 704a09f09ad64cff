package device

import (
	"fmt"
	"testing"

	"tango/internal/blkio"
	"tango/internal/sim"
)

// benchServiceLoop drives nFlows processes issuing back-to-back small
// reads against one HDD — the device service loop (transfer, reshape,
// water-filling, completion timer) is the whole cost. Reported per
// request.
func benchServiceLoop(b *testing.B, nFlows int) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	d := New(eng, HDD("hdd"))
	perFlow := b.N/nFlows + 1
	for j := 0; j < nFlows; j++ {
		cg := blkio.NewCgroup(fmt.Sprintf("cg%d", j))
		cg.SetWeight(100 + 100*j)
		if j%3 == 1 {
			cg.SetReadBpsLimit(40 * MB) // exercise the water-filling path
		}
		eng.Spawn(fmt.Sprintf("f%d", j), func(p *sim.Proc) {
			for i := 0; i < perFlow; i++ {
				d.Read(p, cg, 4*MB)
			}
		})
	}
	if err := eng.RunAll(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkServiceLoop1Flow(b *testing.B)  { benchServiceLoop(b, 1) }
func BenchmarkServiceLoop4Flows(b *testing.B) { benchServiceLoop(b, 4) }
func BenchmarkServiceLoop8Flows(b *testing.B) { benchServiceLoop(b, 8) }

// BenchmarkReshapeChurn measures weight churn against long-lived flows:
// every Touch recomputes the proportional-share allocation for the whole
// flow set, the path the cross-layer controller hits on each weight write.
func BenchmarkReshapeChurn(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	d := New(eng, HDD("hdd"))
	cgs := make([]*blkio.Cgroup, 6)
	for j := range cgs {
		cgs[j] = blkio.NewCgroup(fmt.Sprintf("cg%d", j))
		cgs[j].SetWeight(100 + 10*j)
		cg := cgs[j]
		eng.Spawn(fmt.Sprintf("f%d", j), func(p *sim.Proc) {
			d.Read(p, cg, 1e15) // effectively infinite: stays in-flight
		})
	}
	n := b.N
	eng.Spawn("churn", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			cgs[i%len(cgs)].SetWeight(100 + i%900)
			p.Sleep(0.001)
		}
	})
	if err := eng.Run(float64(n) * 0.001); err != nil {
		b.Fatal(err)
	}
}

// fanInReader is one cgroup's reader made of callbacks: the end of each
// transfer starts the next, until its budget runs out.
type fanInReader struct {
	d    *Device
	cg   *blkio.Cgroup
	tok  Token
	left int
}

func (r *fanInReader) TransferDone(*Token, error) { r.next() }

func (r *fanInReader) next() {
	for r.left > 0 {
		r.left--
		if ended, _ := r.d.Begin(r.cg, 4*MB, false, false, &r.tok, 0, r); !ended {
			return
		}
	}
}

// BenchmarkServiceLoopFanIn is fleet's tail at one device: 16 cgroups with
// a flow each, kept busy through Begin callbacks with no process, so every
// reshape spans 15 or 16 flows and no coroutine switch is timed. Reported
// per request.
func BenchmarkServiceLoopFanIn(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	d := New(eng, HDD("hdd"))
	readers := make([]fanInReader, 16)
	for j := range readers {
		cg := blkio.NewCgroup(fmt.Sprintf("cg%d", j))
		cg.SetWeight(100 + 50*j)
		readers[j] = fanInReader{d: d, cg: cg, left: b.N/len(readers) + 1}
		readers[j].next()
	}
	if err := eng.RunAll(); err != nil {
		b.Fatal(err)
	}
}
