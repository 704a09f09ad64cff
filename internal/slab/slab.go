// Package slab hands out small structs from owner-held chunks instead of
// one heap object each. An owner that creates one T per session (an engine
// its events, a blkio controller its cgroups, a weight allocator its
// entries) embeds a Chunks[T]: a 100-session node then costs a handful
// of chunks per type, and the collector walks those instead of hundreds of
// objects. Chunks change only where a struct lives, never what it holds.
package slab

// maxChunk caps the doubling from 1 (the 2–5 cgroup nodes of the
// single-node scenarios pay no slack). Measured on the fleet workload's
// 100-session nodes, 32 and 64 save 0.01 objects per step over 16, cost
// 3 % more bytes in unused tails, and push node_faulted's bytes above
// what one object per struct cost (docs/performance.md "Fleet set-up").
const maxChunk = 16

// Chunks is the allocator of one owner; the zero value is ready. Never
// share one: what it hands out stays reachable while any element of the
// same chunk is, so a killed node's engine, controller and allocator are
// collectable only as a unit. Slots are not taken back: the owner dies
// with its node.
type Chunks[T any] struct {
	// free is what is left of the current chunk, whose size is its capacity.
	// Elements leave from the tail and nothing is ever appended, so a
	// pointer handed out stays valid.
	free []T
}

// Next returns a pointer to a zero T nobody else holds.
func (c *Chunks[T]) Next() *T {
	n := len(c.free)
	if n == 0 {
		n = min(max(2*cap(c.free), 1), maxChunk)
		c.free = make([]T, n)
	}
	p := &c.free[n-1]
	c.free = c.free[:n-1]
	return p
}

// Grow makes room for n more Next calls in one chunk, dropping what was
// left of the last: for an owner that knows how many it is about to take.
func (c *Chunks[T]) Grow(n int) {
	if len(c.free) < n {
		c.free = make([]T, n)
	}
}
