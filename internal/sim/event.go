// Package sim implements a deterministic discrete-event simulation
// engine. It is the substrate on which the storage devices, cgroup
// controllers, interfering workloads, and data analytics of this
// repository run in virtual time.
//
// Work is events: a Callback (a func, through At) armed at a virtual time,
// fired in (time, seq) order on the engine's own thread, so all simulation
// state is serialized without locks and runs are bit-deterministic for a given
// seed and arming order. A blocking process (Spawn) is kept for callers
// that are written as straight-line code: it follows the SimPy coroutine
// model, one coroutine (iter.Pull) per process from spawn to end, which
// the engine switches to when its resume event fires and which switches
// back when the process blocks or ends — a direct hand-off with no
// channel and no trip through the Go scheduler.
package sim

// event is a scheduled callback. Events fire in (time, seq) order; seq is a
// monotone counter that breaks ties deterministically in FIFO order. A
// drained struct waits in the heap's spare capacity for the next push;
// Timer handles guard against reuse via the seq field.
type event struct {
	t   float64
	seq int64
	cb  Callback // nil once fired or stopped
}

// before reports whether a fires strictly before b.
func before(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventHeap is a min-heap of events ordered by time then sequence. It is a
// concrete implementation — sift operations are called directly from the
// engine's hot path, with no container/heap interface indirection.
type eventHeap []*event

// pop removes the minimum event and returns its time and body. Its struct
// stays in the slot just past the new end for a push to reuse, its body
// dropped: Stop on the handle of the event being fired is false.
func (h *eventHeap) pop() (float64, Callback) {
	old := *h
	n := len(old) - 1
	ev := old[0]
	old[0], old[n] = old[n], ev
	*h = old[:n]
	if n > 0 {
		h.siftDown(0)
	}
	cb := ev.cb
	ev.cb = nil
	return ev.t, cb
}

// siftUp bubbles the element at i toward the root, moving parents down into
// the hole rather than swapping pairwise.
func (h eventHeap) siftUp(i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !before(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// siftDown pushes the element at i toward the leaves.
func (h eventHeap) siftDown(i int) {
	n := len(h)
	ev := h[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && before(h[r], h[child]) {
			child = r
		}
		if !before(h[child], ev) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = ev
}
