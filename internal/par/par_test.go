package par

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, Threshold - 1, Threshold, Threshold + 13, 1 << 18} {
		marks := make([]int32, n)
		For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&marks[i], 1)
			}
		})
		for i, m := range marks {
			if m != 1 {
				t.Fatalf("n=%d index %d visited %d times", n, i, m)
			}
		}
	}
}

func TestForDisjointChunks(t *testing.T) {
	n := 1 << 17
	out := make([]int, n)
	For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = i * 3
		}
	})
	for i, v := range out {
		if v != i*3 {
			t.Fatalf("index %d = %d", i, v)
		}
	}
}

func TestForNegativeAndZero(t *testing.T) {
	called := false
	For(0, func(lo, hi int) { called = true })
	For(-5, func(lo, hi int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestMapReduceSum(t *testing.T) {
	n := 1 << 17
	got := MapReduce(n, func(lo, hi int) int64 {
		var s int64
		for i := lo; i < hi; i++ {
			s += int64(i)
		}
		return s
	}, func(a, b int64) int64 { return a + b })
	want := int64(n) * int64(n-1) / 2
	if got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestMapReduceDeterministicFloatOrder(t *testing.T) {
	// Chunk-ordered combining must give identical bits across runs.
	n := 1<<16 + 37
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1.0 / float64(i+1)
	}
	run := func() float64 {
		return MapReduce(n, func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += vals[i]
			}
			return s
		}, func(a, b float64) float64 { return a + b })
	}
	first := run()
	for i := 0; i < 10; i++ {
		if run() != first {
			t.Fatal("nondeterministic float reduction")
		}
	}
}

func TestMapReduceEmpty(t *testing.T) {
	got := MapReduce(0, func(lo, hi int) int { return 1 }, func(a, b int) int { return a + b })
	if got != 0 {
		t.Fatalf("empty reduce = %d", got)
	}
}

func TestMapReduceSmallInline(t *testing.T) {
	got := MapReduce(5, func(lo, hi int) int { return hi - lo }, func(a, b int) int { return a + b })
	if got != 5 {
		t.Fatalf("inline reduce = %d", got)
	}
}

// TestBitsAndCoverageIndependentOfWidth runs For, ForChunk and MapReduce
// over several chunks at GOMAXPROCS 1, 2 and 4: every width must cover
// each index once, hand out the same chunks and fold to the same bits.
func TestBitsAndCoverageIndependentOfWidth(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	n := 1<<18 + 101
	if NumChunks(n) < 2 {
		t.Fatalf("n=%d is %d chunk", n, NumChunks(n))
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1.0 / float64(i+3)
	}
	var sums []uint64
	var bounds [][2]int
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		sum := MapReduce(n, func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += vals[i]
			}
			return s
		}, func(a, b float64) float64 { return a + b })
		marks := make([]int32, n)
		For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&marks[i], 1)
			}
		})
		chunks := make([][2]int, NumChunks(n))
		ForChunk(n, func(c, lo, hi int) {
			chunks[c] = [2]int{lo, hi}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&marks[i], 1)
			}
		})
		for i, m := range marks {
			if m != 2 {
				t.Fatalf("procs=%d: index %d visited %d times by For and ForChunk, want 2", procs, i, m)
			}
		}
		if sums = append(sums, math.Float64bits(sum)); sums[0] != sums[len(sums)-1] {
			t.Fatalf("procs=%d: reduction %x, at 1 worker %x", procs, sums[len(sums)-1], sums[0])
		}
		if bounds == nil {
			bounds = chunks
		} else if !slices.Equal(bounds, chunks) {
			t.Fatalf("procs=%d: chunks %v, at 1 worker %v", procs, chunks, bounds)
		}
	}
}

func TestChunkSizeDependsOnlyOnN(t *testing.T) {
	for _, n := range []int{1, Threshold, Threshold * maxChunks, Threshold*maxChunks + 1, 1 << 26} {
		c := chunkSize(n)
		if c < Threshold {
			t.Fatalf("chunkSize(%d) = %d below Threshold", n, c)
		}
		if nChunks := (n + c - 1) / c; nChunks > maxChunks {
			t.Fatalf("chunkSize(%d) = %d yields %d chunks (> %d)", n, c, nChunks, maxChunks)
		}
		if c2 := chunkSize(n); c2 != c {
			t.Fatalf("chunkSize(%d) unstable: %d then %d", n, c, c2)
		}
	}
}

func TestForMatchesSequentialProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := int(seed%100000 + 100000)
		a := make([]float64, n)
		b := make([]float64, n)
		fn := func(dst []float64) func(lo, hi int) {
			return func(lo, hi int) {
				for i := lo; i < hi; i++ {
					dst[i] = float64(i) * 1.000001
				}
			}
		}
		fn(a)(0, n)
		For(n, fn(b))
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestForChunkCoversRangeWithChunkIDs(t *testing.T) {
	for _, n := range []int{0, 1, Threshold - 1, Threshold, Threshold*3 + 17, Threshold*maxChunks + 5} {
		nc := NumChunks(n)
		seen := make([]int32, n)
		var calls atomic.Int32
		maxChunk := int32(-1)
		var mu sync.Mutex
		ForChunk(n, func(chunk, lo, hi int) {
			calls.Add(1)
			mu.Lock()
			if int32(chunk) > maxChunk {
				maxChunk = int32(chunk)
			}
			mu.Unlock()
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		if n == 0 {
			if calls.Load() != 0 {
				t.Errorf("n=0: fn called %d times", calls.Load())
			}
			continue
		}
		if int(calls.Load()) != nc {
			t.Errorf("n=%d: %d calls, NumChunks says %d", n, calls.Load(), nc)
		}
		if int(maxChunk) != nc-1 {
			t.Errorf("n=%d: max chunk id %d, want %d", n, maxChunk, nc-1)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d covered %d times", n, i, c)
			}
		}
	}
}

// TestNumChunksMatchesForChunkPartition pins the preallocation contract:
// chunk ids from ForChunk index exactly [0, NumChunks(n)).
func TestNumChunksMatchesForChunkPartition(t *testing.T) {
	if got := NumChunks(0); got != 0 {
		t.Errorf("NumChunks(0) = %d", got)
	}
	if got := NumChunks(-5); got != 0 {
		t.Errorf("NumChunks(-5) = %d", got)
	}
	if got := NumChunks(1); got != 1 {
		t.Errorf("NumChunks(1) = %d", got)
	}
	if got := NumChunks(Threshold - 1); got != 1 {
		t.Errorf("NumChunks(Threshold-1) = %d", got)
	}
	n := Threshold * 4
	slots := make([][2]int, NumChunks(n))
	ForChunk(n, func(chunk, lo, hi int) {
		slots[chunk] = [2]int{lo, hi}
	})
	prev := 0
	for c, s := range slots {
		if s[0] != prev {
			t.Fatalf("chunk %d starts at %d, want %d", c, s[0], prev)
		}
		if s[1] <= s[0] {
			t.Fatalf("chunk %d empty: %v", c, s)
		}
		prev = s[1]
	}
	if prev != n {
		t.Fatalf("chunks end at %d, want %d", prev, n)
	}
}
