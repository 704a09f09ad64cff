package staging

import (
	"testing"

	"tango/internal/blkio"
	"tango/internal/device"
	"tango/internal/refactor"
	"tango/internal/sim"
)

func stagedFixture(t *testing.T) (*sim.Engine, *Store, *device.Device, *device.Device) {
	t.Helper()
	eng := sim.NewEngine()
	ssd, hdd := twoTier(eng)
	h, err := refactor.Decompose(field(65, 21), refactor.Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Stage(h, []*device.Device{ssd, hdd})
	if err != nil {
		t.Fatal(err)
	}
	return eng, s, ssd, hdd
}

func TestParallelReadSameBytesAsSequential(t *testing.T) {
	eng, s, ssd, hdd := stagedFixture(t)
	h := s.Hierarchy()
	cg := blkio.NewCgroup("a")
	var seq, par TierStats
	eng.Spawn("seq", func(p *sim.Proc) {
		seq = s.ReadRange(p, cg, 0, h.TotalEntries())
		par = s.ReadRangeParallel(p, cg, 0, h.TotalEntries())
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if seq.BytesOn(ssd) != par.BytesOn(ssd) || seq.BytesOn(hdd) != par.BytesOn(hdd) {
		t.Fatalf("byte mismatch: seq ssd=%v hdd=%v, par ssd=%v hdd=%v",
			seq.BytesOn(ssd), seq.BytesOn(hdd), par.BytesOn(ssd), par.BytesOn(hdd))
	}
}

func TestParallelReadOverlapsTiers(t *testing.T) {
	eng, s, _, _ := stagedFixture(t)
	h := s.Hierarchy()
	cg := blkio.NewCgroup("a")
	var tSeq, tPar float64
	eng.Spawn("driver", func(p *sim.Proc) {
		start := p.Now()
		s.ReadRange(p, cg, 0, h.TotalEntries())
		tSeq = p.Now() - start
		start = p.Now()
		s.ReadRangeParallel(p, cg, 0, h.TotalEntries())
		tPar = p.Now() - start
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	// Overlapping tiers must not be slower; with both tiers carrying
	// data it must be strictly faster than the serial sum.
	if !(tPar < tSeq) {
		t.Fatalf("parallel %v not faster than sequential %v", tPar, tSeq)
	}
}

func TestParallelReadEmptyAndSingleTierRanges(t *testing.T) {
	eng, s, _, hdd := stagedFixture(t)
	h := s.Hierarchy()
	cg := blkio.NewCgroup("a")
	eng.Spawn("driver", func(p *sim.Proc) {
		// Empty range.
		ts := s.ReadRangeParallel(p, cg, 5, 5)
		if b, _ := ts.Total(); b != 0 {
			t.Errorf("empty range read %v bytes", b)
		}
		// A range confined to the finest level lives on one tier only.
		segs := h.Segments(0, h.TotalEntries())
		last := segs[len(segs)-1]
		if last.Level != 0 {
			t.Fatalf("unexpected segment layout: %+v", segs)
		}
		from := h.TotalEntries() - (last.End - last.Start)
		ts = s.ReadRangeParallel(p, cg, from, h.TotalEntries())
		if ts.BytesOn(hdd) == 0 {
			t.Error("single-tier range read nothing from hdd")
		}
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelReadDeterministic(t *testing.T) {
	run := func() float64 {
		eng, s, _, _ := stagedFixture(t)
		h := s.Hierarchy()
		cg := blkio.NewCgroup("a")
		var elapsed float64
		eng.Spawn("driver", func(p *sim.Proc) {
			start := p.Now()
			s.ReadRangeParallel(p, cg, 0, h.TotalEntries())
			elapsed = p.Now() - start
		})
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic parallel read: %v vs %v", a, b)
	}
}
