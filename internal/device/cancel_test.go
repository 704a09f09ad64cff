package device

import (
	"errors"
	"testing"

	"tango/internal/blkio"
	"tango/internal/sim"
)

func TestCancelMidFlightAccountsPartialBytes(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, flatParams(100))
	cg := blkio.NewCgroup("a")
	var tok Token
	var elapsed float64
	var err error
	eng.Spawn("reader", func(p *sim.Proc) {
		elapsed, err = d.TryReadCancel(p, cg, 1000, &tok, 0)
	})
	eng.Spawn("canceller", func(p *sim.Proc) {
		p.Sleep(4)
		if !tok.Cancel() {
			t.Error("mid-flight cancel should succeed")
		}
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	almost(t, elapsed, 4, 1e-9, "cancelled at t=4")
	almost(t, tok.Moved(), 400, 1e-9, "partial bytes at 100 B/s")
	almost(t, d.TotalBytes(), 400, 1e-9, "device credits partial progress")
	almost(t, cg.BytesRead(), 400, 1e-9, "cgroup accounting of partial bytes")
}

func TestCancelDuringLatencyMovesNothing(t *testing.T) {
	eng := sim.NewEngine()
	pp := flatParams(100)
	pp.RequestLatency = 0.5
	d := New(eng, pp)
	cg := blkio.NewCgroup("a")
	var tok Token
	var err error
	eng.Spawn("reader", func(p *sim.Proc) {
		_, err = d.TryReadCancel(p, cg, 1000, &tok, 0)
	})
	eng.Spawn("canceller", func(p *sim.Proc) {
		p.Sleep(0.2) // inside the latency phase: no flow exists yet
		if !tok.Cancel() {
			t.Error("pre-flow cancel should succeed")
		}
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	almost(t, tok.Moved(), 0, 0, "no bytes before the flow starts")
	almost(t, d.TotalBytes(), 0, 0, "device untouched")
}

func TestCancelAfterCompletionIsNoop(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, flatParams(100))
	cg := blkio.NewCgroup("a")
	var tok Token
	eng.Spawn("reader", func(p *sim.Proc) {
		if _, err := d.TryReadCancel(p, cg, 1000, &tok, 0); err != nil {
			t.Errorf("unfaulted read: %v", err)
		}
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if tok.Cancel() {
		t.Fatal("cancel after completion must be a no-op")
	}
	almost(t, tok.Moved(), 1000, 0, "full payload reported")
	almost(t, d.TotalBytes(), 1000, 0, "payload accounted once")
}

func TestStaleTokenDoesNotCancelLaterFlow(t *testing.T) {
	// A timer firing after its transfer finished must not kill whatever
	// flow reused the struct: finish clears the token's flow pointer, so a
	// spent token reaches no flow at all.
	eng := sim.NewEngine()
	d := New(eng, flatParams(100))
	cg := blkio.NewCgroup("a")
	var tok1, tok2 Token
	eng.Spawn("reader", func(p *sim.Proc) {
		if _, err := d.TryReadCancel(p, cg, 100, &tok1, 0); err != nil {
			t.Errorf("first read: %v", err)
		}
		if _, err := d.TryReadCancel(p, cg, 100, &tok2, 0); err != nil {
			t.Errorf("second read: %v", err)
		}
	})
	eng.Spawn("stale", func(p *sim.Proc) {
		p.Sleep(1.5) // mid-second-transfer; tok1's flow is long done
		if tok1.Cancel() {
			t.Error("stale token must not cancel a recycled flow")
		}
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	almost(t, d.TotalBytes(), 200, 1e-9, "both transfers complete")
}

func TestCancelRedistributesBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, flatParams(100))
	a, b := blkio.NewCgroup("a"), blkio.NewCgroup("b")
	var tok Token
	var tb float64
	eng.Spawn("a", func(p *sim.Proc) {
		d.TryReadCancel(p, a, 1e6, &tok, 0)
	})
	eng.Spawn("b", func(p *sim.Proc) { tb = d.Read(p, b, 1000) })
	eng.Spawn("canceller", func(p *sim.Proc) {
		p.Sleep(10)
		tok.Cancel()
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	// b at 50 B/s until t=10 (500 bytes), then alone at 100 B/s: 5 s more.
	almost(t, tb, 15, 1e-9, "survivor picks up the freed share")
	almost(t, tok.Moved(), 500, 1e-9, "cancelled flow's partial progress")
}

func TestNilTokenDegradesToTryRead(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, flatParams(100))
	d.SetReadError(true)
	cg := blkio.NewCgroup("a")
	var err error
	eng.Spawn("reader", func(p *sim.Proc) {
		_, err = d.TryReadCancel(p, cg, 1000, nil, 0)
	})
	if e := eng.RunAll(); e != nil {
		t.Fatal(e)
	}
	if !errors.Is(err, ErrRead) {
		t.Fatalf("want ErrRead through nil-token path, got %v", err)
	}
}

func TestZeroByteCancellableReadPaysLatencyOnly(t *testing.T) {
	eng := sim.NewEngine()
	pp := flatParams(100)
	pp.RequestLatency = 0.5
	d := New(eng, pp)
	cg := blkio.NewCgroup("a")
	var tok Token
	var elapsed float64
	var err error
	eng.Spawn("reader", func(p *sim.Proc) {
		elapsed, err = d.TryReadCancel(p, cg, 0, &tok, 0)
	})
	if e := eng.RunAll(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatalf("zero-byte read: %v", err)
	}
	almost(t, elapsed, 0.5, 1e-12, "request latency still paid")
	almost(t, tok.Moved(), 0, 0, "nothing to move")
	almost(t, d.TotalBytes(), 0, 0, "device untouched")
	almost(t, cg.BytesRead(), 0, 0, "cgroup untouched")
	if d.ActiveFlows() != 0 {
		t.Fatalf("zero-byte request joined the active set: %d flows", d.ActiveFlows())
	}
	if tok.Cancel() {
		t.Fatal("token must be spent after a zero-byte read")
	}
}

func TestReadErrorOnCancellablePath(t *testing.T) {
	eng := sim.NewEngine()
	pp := flatParams(100)
	pp.RequestLatency = 0.5
	d := New(eng, pp)
	d.SetReadError(true)
	cg := blkio.NewCgroup("a")
	var tok Token
	var elapsed float64
	var err error
	eng.Spawn("reader", func(p *sim.Proc) {
		elapsed, err = d.TryReadCancel(p, cg, 1000, &tok, 0)
	})
	if e := eng.RunAll(); e != nil {
		t.Fatal(e)
	}
	if !errors.Is(err, ErrRead) {
		t.Fatalf("want ErrRead, got %v", err)
	}
	almost(t, elapsed, 0.5, 1e-12, "the failed request pays its latency")
	almost(t, tok.Moved(), 0, 0, "a read error moves nothing")
	almost(t, d.TotalBytes(), 0, 0, "device untouched")
	almost(t, cg.BytesRead(), 0, 0, "cgroup untouched")
	if tok.Cancel() {
		t.Fatal("cancel after a read error must be a no-op")
	}
}

// TestTransferSteadyStateZeroAlloc pins the single transfer path's
// allocation contract with the runtime allocator: once the device's free
// flows and the engine's spare events are warm, neither a plain nor a
// cancellable read allocates.
func TestTransferSteadyStateZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, HDD("hdd"))
	cg := blkio.NewCgroup("a")
	var tok Token
	var plain, cancellable float64
	eng.Spawn("reader", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			d.Read(p, cg, 4*MB)
			d.TryReadCancel(p, cg, 4*MB, &tok, 0)
		}
		plain = testing.AllocsPerRun(256, func() { d.Read(p, cg, 4*MB) })
		cancellable = testing.AllocsPerRun(256, func() { d.TryReadCancel(p, cg, 4*MB, &tok, 0) })
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if plain != 0 || cancellable != 0 {
		t.Fatalf("steady-state allocs/op: Read %.1f, TryReadCancel %.1f; want 0, 0", plain, cancellable)
	}
}
