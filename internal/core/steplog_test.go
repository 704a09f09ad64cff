package core

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"tango/internal/fault"
)

// TestStepRecordSizes holds a step's record and a bucket's record under
// ceilings that only go down: a session keeps one StepStats a step and
// ~2.5 BucketStats, so every byte here is paid Steps times (136 and 48
// bytes before Step, the Buckets header and the int fields went).
func TestStepRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(StepStats{}); n > 104 {
		t.Errorf("StepStats is %d bytes, over its 104-byte ceiling", n)
	}
	if n := unsafe.Sizeof(BucketStat{}); n > 40 {
		t.Errorf("BucketStat is %d bytes, over its 40-byte ceiling", n)
	}
}

// TestSummarizeSortsOnTheStack: Summarize of up to 1,024 steps sorts its
// I/O times on the stack and allocates nothing, and at every length its
// summary equals one whose percentiles come from sort.Float64s. The draws
// are non-negative and never −0, as IOTime (now − Start) never is: the two
// sorts may order −0 and +0 differently, and a percentile would see it.
func TestSummarizeSortsOnTheStack(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 19, 20, 100, 1023, 1024, 1025, 3000} {
		stats := make([]StepStats, n)
		for i := range stats {
			stats[i] = StepStats{IOTime: float64(rng.Intn(50)) * rng.Float64(), Bytes: rng.Float64() * 1e6}
		}
		got := Summarize(stats, 0)
		ios := make([]float64, n)
		for i, st := range stats {
			ios[i] = st.IOTime
		}
		sort.Float64s(ios)
		want := got
		want.P50IO, want.P95IO = percentile(ios, 0.50), percentile(ios, 0.95)
		if got != want {
			t.Fatalf("%d steps: summary %+v, want percentiles %v and %v", n, got, want.P50IO, want.P95IO)
		}
		if n <= 1024 {
			if a := testing.AllocsPerRun(10, func() { Summarize(stats, 0) }); a != 0 {
				t.Errorf("%d steps: Summarize allocates %v objects, want 0", n, a)
			}
		}
	}
}

// TestDegradedStepShedsItsPlan: a step that degrades keeps the buckets
// whose reads began, the shed one among them, and none of the planned
// buckets it never read; the next step plans over their slots in the
// bucket log.
func TestDegradedStepShedsItsPlan(t *testing.T) {
	node, st := scenario(t, 0)
	plan := &fault.Plan{Events: []fault.Event{{At: period - 1, Kind: fault.ReadError, Target: "hdd", Duration: 30}}}
	if err := fault.NewInjector(node, nil, plan).Arm(); err != nil {
		t.Fatal(err)
	}
	s, err := NewSession("analytics", st, Config{Policy: CrossLayer, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Launch(node); err != nil {
		t.Fatal(err)
	}
	if err := node.Engine().Run(3*period + 600); err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	if len(stats) != 3 || stats[0].Degraded || !stats[1].Degraded || stats[2].Degraded {
		t.Fatalf("want only step 1 of 3 degraded: %+v", stats)
	}
	full, shed := s.Buckets(0), s.Buckets(1)
	if len(shed) == 0 || len(shed) >= len(full) {
		t.Fatalf("degraded step kept %d buckets of the %d a full step reads", len(shed), len(full))
	}
	last := shed[len(shed)-1]
	if stats[1].Cursor >= int(last.To) || last.Start < stats[1].Start {
		t.Fatalf("the shed bucket %+v is not the one whose read degraded at cursor %d", last, stats[1].Cursor)
	}
	if b0, want := stats[2].b0, stats[1].b0+uint32(stats[1].nb); b0 != want {
		t.Fatalf("step 2 plans at log index %d, want %d, just past step 1's read buckets", b0, want)
	}
	if next := s.Buckets(2); len(next) != len(full) || next[0].From != 0 {
		t.Fatalf("step 2 read %v over step 1's shed plan, want a full step from entry 0", next)
	}
}

// TestStepBeginsNewChunk: a session of three chunks' steps fills its
// chunks in order, starts a step's buckets at the head of a new chunk only
// when the last cannot hold one more step's plan, and reads every step's
// buckets back as the partition of [0, Cursor) it read — across the chunk
// boundaries too. The chunk list is sized once, at NewSession (grown by
// append, its capacity would read 4). The tightest bound makes each step
// read at least three of the ladder's four buckets, so the steps need all
// three chunks.
func TestStepBeginsNewChunk(t *testing.T) {
	const steps = 3 * bucketChunkSteps
	s := runSession(t, CrossLayer, 3, steps, func(c *Config) {
		c.RefitEvery = 10
		c.Window = 10
		c.ErrorControl = true
		c.Bound = 0.001
	})
	want := (steps + bucketChunkSteps - 1) / bucketChunkSteps
	if len(s.bkLog) != want || cap(s.bkLog) != want {
		t.Fatalf("bucket log has %d chunks (cap %d), want %d sized once", len(s.bkLog), cap(s.bkLog), want)
	}
	maxB := len(s.store.Hierarchy().Rungs()) + 1
	began := 0
	for i, st := range s.Stats() {
		if c := int(st.b0) / s.bkCap; i > 0 && c != int(s.stats[i-1].b0)/s.bkCap {
			end := int(s.stats[i-1].b0)%s.bkCap + int(s.stats[i-1].nb)
			if int(st.b0)%s.bkCap != 0 || end+maxB <= len(s.bkLog[c-1]) {
				t.Fatalf("step %d begins chunk %d at offset %d, chunk %d used %d of %d", i, c, int(st.b0)%s.bkCap, c-1, end, len(s.bkLog[c-1]))
			}
			began++
		}
		prev := 0
		for _, b := range s.Buckets(i) {
			if int(b.From) != prev || b.To <= b.From || b.Start < st.Start || b.Start+b.Elapsed > st.Start+st.IOTime {
				t.Fatalf("step %d: bucket %+v after entry %d in a step at %v for %v", i, b, prev, st.Start, st.IOTime)
			}
			prev = int(b.To)
		}
		if prev != st.Cursor {
			t.Fatalf("step %d: buckets cover [0, %d), cursor %d", i, prev, st.Cursor)
		}
	}
	if began != want-1 {
		t.Fatalf("%d steps began a chunk, want %d", began, want-1)
	}
}
