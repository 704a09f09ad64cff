package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"tango/internal/trace"
)

// span is one timed interval around a call into the stack. Parent is
// the index of the enclosing span (-1 for the run's root), so the file
// written by -trace-out reads as a tree: run → iteration → scenario →
// call. Times are seconds since the tracer was created.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
}

// tracer keeps spans in memory; nothing is written until the run ends.
// A nil tracer records nothing and allocates nothing, which is how the
// untraced run calls the same workload code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func noop() {}

// begin opens a span under the innermost open one and returns the call
// that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return noop
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Seconds(), Parent: parent})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = time.Since(t.t0).Seconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// totalsUnder sums span durations by name over the subtree rooted at
// span root (one iteration).
func (t *tracer) totalsUnder(root int) map[string]float64 {
	under := make([]bool, len(t.spans))
	under[root] = true
	out := map[string]float64{}
	for i := root + 1; i < len(t.spans); i++ {
		s := t.spans[i]
		if s.Parent < 0 || !under[s.Parent] {
			continue
		}
		under[i] = true
		out[s.Name] += s.End - s.Start
	}
	return out
}

func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// eventCounts counts the trace events the stack emits in the traced
// run, by kind. A nil *eventCounts hands out nil recorders, which the
// stack treats as tracing off.
type eventCounts struct {
	mu     sync.Mutex
	byKind map[string]int // guarded by mu
}

func newEventCounts() *eventCounts { return &eventCounts{byKind: map[string]int{}} }

func (e *eventCounts) recorder(max int) *trace.Recorder {
	if e == nil {
		return nil
	}
	r := trace.New(max)
	r.Subscribe(func(ev trace.Event) {
		e.mu.Lock()
		e.byKind[ev.Kind]++
		e.mu.Unlock()
	})
	return r
}

// take returns the count for kind since the last take and resets it.
func (e *eventCounts) take(kind string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.byKind[kind]
	delete(e.byKind, kind)
	return n
}
