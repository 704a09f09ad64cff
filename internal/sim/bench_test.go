package sim

import "testing"

// BenchmarkScheduleDispatch measures the raw event loop: schedule-and-run
// batches of future events through the heap, the dominant cost of every
// simulated second. Reported per event.
func BenchmarkScheduleDispatch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	fired := 0
	fn := func() { fired++ }
	const batch = 1024
	for n := 0; n < b.N; n += batch {
		base := e.Now()
		for i := 0; i < batch; i++ {
			// Interleaved offsets exercise sift-up and sift-down paths.
			e.At(base+float64((i*7)%batch)+1, fn)
		}
		if err := e.Run(base + batch + 1); err != nil {
			b.Fatal(err)
		}
	}
	if fired == 0 {
		b.Fatal("no events fired")
	}
}

// BenchmarkTimerStop measures schedule-then-cancel, the pattern the
// device's completion timer follows on every reshape.
func BenchmarkTimerStop(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	fn := func() {}
	const batch = 256
	for n := 0; n < b.N; n += batch {
		base := e.Now()
		for i := 0; i < batch; i++ {
			t := e.At(base+float64(i)+1, fn)
			t.Stop()
		}
		if err := e.Run(base + batch + 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProcSleepLoop measures the process round trip: one process
// sleeping in a tight virtual-time loop (two coroutine switches plus one
// event per iteration).
func BenchmarkProcSleepLoop(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	n := b.N
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	if err := e.RunAll(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCalendar is BenchmarkScheduleDispatch with each batch armed as
// one Calendar: the queue holds one slot for the batch instead of one per
// event. Reported per event.
func BenchmarkCalendar(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	var c Calendar
	fired := new(calCount)
	const batch = 1024
	for n := 0; n < b.N; n += batch {
		base := e.Now()
		c.Reset(e, batch)
		for i := 0; i < batch; i++ {
			c.Add(base+float64((i*7)%batch)+1, fired)
		}
		c.Arm()
		if err := e.Run(base + batch + 1); err != nil {
			b.Fatal(err)
		}
	}
	if *fired == 0 {
		b.Fatal("no events fired")
	}
}
