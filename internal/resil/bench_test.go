package resil

import (
	"testing"

	"tango/internal/blkio"
	"tango/internal/device"
	"tango/internal/sim"
)

// BenchmarkAttemptNoTimeout measures the control-plane overhead of one
// successful policy-keyed read on a key without a per-attempt deadline
// (the mandatory-read fast path): breaker check, attempt, classification.
func BenchmarkAttemptNoTimeout(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	c := New(eng, Options{})
	d := device.New(eng, flatParams("hdd", 100*device.MB))
	cg := blkio.NewCgroup("a")
	k := c.Key(KeyStagingReadCapacity)
	n := b.N
	eng.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			k.Read(p, d, cg, 4*device.MB)
		}
	})
	if err := eng.RunAll(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAttemptDeadlined measures the deadlined attempt path: pooled
// token, cancellable transfer carrying its deadline (no timer of its own).
func BenchmarkAttemptDeadlined(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	c := New(eng, Options{})
	d := device.New(eng, flatParams("ssd", 500*device.MB))
	cg := blkio.NewCgroup("a")
	k := c.Key(KeyStagingReadOptional)
	n := b.N
	eng.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			k.Read(p, d, cg, 4*device.MB)
		}
	})
	if err := eng.RunAll(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBreakerAllow measures the breaker admission fast path.
func BenchmarkBreakerAllow(b *testing.B) {
	b.ReportAllocs()
	br := &Breaker{threshold: 4, cooldown: 20}
	for i := 0; i < b.N; i++ {
		br.allow(float64(i))
		br.onSuccess()
	}
}

// BenchmarkBudgetTake measures the token-bucket fast path.
func BenchmarkBudgetTake(b *testing.B) {
	b.ReportAllocs()
	bk := bucket{cap: 64, refill: 1e9, tokens: 64}
	for i := 0; i < b.N; i++ {
		bk.take(float64(i))
	}
}

// TestAttemptFastPathZeroAlloc pins the //tango:hotpath contract with the
// runtime allocator, complementing the static lint: successful deadlined
// attempts — pooled token, cancellable transfer carrying its deadline,
// breaker and budget bookkeeping — allocate nothing in steady state. The
// sim engine's own freelists (events, flows) make the whole stack warm
// after the first iteration.
func TestAttemptFastPathZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Options{})
	d := device.New(eng, flatParams("ssd", 500*device.MB))
	cg := blkio.NewCgroup("a")
	k := c.Key(KeyStagingReadOptional)
	const warm, measured = 64, 256
	var allocs float64
	eng.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < warm; i++ {
			if res := k.Read(p, d, cg, 4*device.MB); !res.OK {
				t.Errorf("warmup read failed: %+v", res)
			}
		}
		allocs = testing.AllocsPerRun(measured, func() {
			k.Read(p, d, cg, 4*device.MB)
		})
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("deadlined attempt fast path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestRetriedReadZeroAllocUntraced extends the pin above from the attempt
// to the retry wrapper: with no recorder, a read that fails once and
// succeeds on its retry — classification, breaker and budget bookkeeping,
// the backoff sleep — boxes nothing for an emit nobody reads.
func TestRetriedReadZeroAllocUntraced(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, Options{})
	d := device.New(eng, flatParams("hdd", 100*device.MB))
	cg := blkio.NewCgroup("a")
	k := c.Key(KeyStagingReadOptional)
	heal := func() { d.SetReadError(false) }
	// 8 s of transfer per op keeps the key's 0.25 token/s retry budget
	// (and the node's) from running dry, which is a different path.
	read := func(p *sim.Proc) {
		d.SetReadError(true)
		eng.At(eng.Now()+0.01, heal)
		if res := k.Read(p, d, cg, 800*device.MB); !res.OK || res.Retries != 1 {
			t.Errorf("read = %+v, want one retry then success", res)
		}
	}
	var allocs float64
	eng.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			read(p)
		}
		allocs = testing.AllocsPerRun(64, func() { read(p) })
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("retried read allocates %.1f objects/op with a nil recorder, want 0", allocs)
	}
}
