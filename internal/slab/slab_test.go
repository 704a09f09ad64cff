package slab

import "testing"

type item struct {
	id  int
	pad [3]int
}

// Pointers handed out before a chunk boundary stay valid and distinct
// after it, every slot starts zero, and chunk sizes double to the cap.
func TestNextStableDistinctZero(t *testing.T) {
	var c Chunks[item]
	const n = 1000
	ptrs := make([]*item, n)
	seen := map[*item]bool{}
	for i := range ptrs {
		p := c.Next()
		if *p != (item{}) {
			t.Fatalf("slot %d not zero: %+v", i, *p)
		}
		if seen[p] {
			t.Fatalf("slot %d handed out twice", i)
		}
		seen[p] = true
		p.id, p.pad[2] = i, -i
		ptrs[i] = p
	}
	for i, p := range ptrs {
		if p.id != i || p.pad[2] != -i {
			t.Fatalf("slot %d reads %+v after later chunks were made", i, *p)
		}
	}
}

// 1, 2, 4, … maxChunk, maxChunk, …: n slots cost O(n/maxChunk) objects.
func TestNextChunkGrowth(t *testing.T) {
	var c Chunks[item]
	var sizes []int
	for i := 0; i < 4*maxChunk; i++ {
		fresh := len(c.free) == 0
		c.Next()
		if fresh {
			sizes = append(sizes, cap(c.free))
		}
	}
	want := 1
	for i, got := range sizes {
		if got != want {
			t.Fatalf("chunk %d holds %d, want %d (all: %v)", i, got, want, sizes)
		}
		want = min(2*want, maxChunk)
	}
	allocs := testing.AllocsPerRun(10, func() {
		var c Chunks[item]
		for i := 0; i < 1000; i++ {
			c.Next()
		}
	})
	if limit := float64(1000/maxChunk + 8); allocs > limit {
		t.Fatalf("1000 slots cost %v objects, want <= %v", allocs, limit)
	}
}

// Two owners never hand out slots of one chunk.
func TestOwnersShareNothing(t *testing.T) {
	var a, b Chunks[item]
	pa := make([]*item, 100)
	for i := range pa {
		pa[i] = a.Next()
		pa[i].id = i
		b.Next().id = -1
	}
	for i, p := range pa {
		if p.id != i {
			t.Fatalf("owner a's slot %d was written through owner b", i)
		}
	}
}
