// Package hotfix is a tangolint fixture: seeded violations of the
// hotpath analyzer. Emit is the annotated root; record and format are
// reached transitively, so their findings must carry a call-chain
// witness from Emit.
package hotfix

import (
	"fmt"

	"tango/internal/trace"
)

// Sink is a zero-alloc emitter with preallocated scratch state.
type Sink struct {
	buf   []byte
	items []int
	cb    func()
	rec   *trace.Recorder
}

// Emit is the hot entry point; everything it reaches inherits the
// zero-allocation budget.
//
//tango:hotpath
func (s *Sink) Emit(v int) {
	s.record(v)
}

func (s *Sink) record(v int) {
	s.guard(v)
	msg := fmt.Sprintf("v=%d", v) // want hotpath "fmt.Sprintf allocates"
	_ = msg
	s.items = append(s.items, v) // field append: amortized reuse, allowed
	s.format(v, "x")
	s.evident(v)
	s.trace(v, 0.5)
}

func (s *Sink) format(v int, name string) {
	label := name + "!" // want hotpath "string concatenation allocates"
	_ = label
	m := map[string]int{"v": v} // want hotpath "map literal allocates"
	_ = m
	xs := []int{v} // want hotpath "slice literal allocates"
	_ = xs
	s.cb = func() { s.items = s.items[:0] } // want hotpath "escaping function literal"
	h := s.flush                            // want hotpath "bound method value s.flush"
	_ = h
	go s.flush() // want hotpath "go statement spawns a goroutine"
	var tmp []int
	tmp = append(tmp, v) // want hotpath "append to tmp without capacity evidence"
	_ = tmp
	accept(v) // want hotpath "passing int as any boxes"
	_ = s.annotate(nil)
}

func (s *Sink) flush() { s.items = s.items[:0] }

// level is an int the trace stub cannot store: a named type.
type level int

// Emit's variadic arguments are copied by value, so passing an int,
// float64, string or bool draws no boxing finding; any other type is
// reported, since Emit panics on it.
func (s *Sink) trace(v int, f float64) {
	s.rec.Emit(f, "sink", "k", "v=%d f=%g ok=%t src=%s", v, f, v > 0, "sink")
	s.rec.Emit(f, "sink", "k", "lvl=%d", level(v)) // want hotpath "trace argument of type tango/internal/fixture/hotfix.level"
}

func accept(x any) { _ = x }

// Capacity evidence in the same function: allowed, even on the hot
// path.
func (s *Sink) evident(v int) {
	out := make([]int, 0, 8)
	out = append(out, v)
	kept := s.items[:0]
	kept = append(kept, out...)
	s.items = kept
}

// Panic arguments are cold by definition: the fmt call below is on the
// hot path yet draws no finding.
func (s *Sink) guard(v int) {
	if v < 0 {
		panic(fmt.Sprintf("hotfix: negative value %d", v))
	}
}

// A reasoned suppression keeps a deliberate allocation visible.
func (s *Sink) annotate(err error) string {
	//lint:ignore hotpath error path only; allocation is acceptable once per failure
	return fmt.Sprintf("sink failed: %v", err)
}

// cold is unreachable from any //tango:hotpath root: the same constructs
// draw no findings here.
func cold(v int) string {
	m := map[string]int{"v": v}
	return fmt.Sprint(m)
}
