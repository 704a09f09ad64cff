package trace

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Emit(1, "x", "k", "msg %d", 1) // must not panic
	if r.Events() != nil || r.Len() != 0 {
		t.Fatal("nil recorder should be empty")
	}
	r.Subscribe(func(Event) {})
}

// TestZeroValueRecorderIsInert: the doc promises the zero value is
// disabled; Emit used to index an empty ring and panic.
func TestZeroValueRecorderIsInert(t *testing.T) {
	r := &Recorder{}
	r.Subscribe(func(Event) { t.Error("zero-value recorder delivered an event") })
	r.Emit(1, "x", "k", "msg %d", 1)
	r.Emit(2, "x", "k", "verbatim")
	if r.Events() != nil || r.Len() != 0 || len(r.Filter("k")) != 0 {
		t.Fatal("zero-value recorder should stay empty")
	}
	var sb strings.Builder
	if n, err := r.WriteTo(&sb); n != 0 || err != nil || sb.Len() != 0 {
		t.Fatalf("WriteTo = %d, %v, %q", n, err, sb.String())
	}
}

func TestEmitAndEvents(t *testing.T) {
	r := New(10)
	r.Emit(1.5, "sess", "step", "step %d", 0)
	r.Emit(2.5, "sess", "weight", "w=%d", 300)
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Msg() != "step 0" || evs[1].Msg() != "w=300" {
		t.Fatalf("messages: %+v", evs)
	}
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
}

func TestRingWrapKeepsMostRecent(t *testing.T) {
	r := New(3)
	for i := 0; i < 7; i++ {
		r.Emit(float64(i), "s", "k", "%d", i)
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("retained = %d", len(evs))
	}
	want := []string{"4", "5", "6"}
	for i, w := range want {
		if evs[i].Msg() != w {
			t.Fatalf("events = %+v", evs)
		}
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
}

func TestFilter(t *testing.T) {
	r := New(10)
	r.Emit(1, "s", "a", "x")
	r.Emit(2, "s", "b", "y")
	r.Emit(3, "s", "a", "z")
	as := r.Filter("a")
	if len(as) != 2 || as[1].Msg() != "z" {
		t.Fatalf("filter = %+v", as)
	}
	if len(r.Filter("missing")) != 0 {
		t.Fatal("bogus kind matched")
	}
}

func TestSubscribe(t *testing.T) {
	r := New(10)
	var got []Event
	r.Subscribe(func(ev Event) { got = append(got, ev) })
	r.Emit(1, "s", "k", "hello")
	if len(got) != 1 || got[0].Msg() != "hello" {
		t.Fatalf("subscriber: %+v", got)
	}
}

// TestMsgMatchesSprintf: Msg() is fmt.Sprintf(format, args...) for each
// stored type and at six arguments; an event with no arguments keeps its
// format verbatim, verbs and all.
func TestMsgMatchesSprintf(t *testing.T) {
	cases := []struct {
		format string
		args   []any
	}{
		{"w=%d", []any{-300}},
		{"io=%.3fs bytes=%.0f g=%g", []any{1.25, 3e9, math.Inf(-1)}},
		{"dev=%s %q", []any{"hdd", "a b"}},
		{"timeout=%t/%v", []any{true, false}},
		{"step=%d io=%.3fs dev=%s ok=%t pred=%.0f degree=%.2f", []any{7, 0.5, "ssd", true, 1e8, 0.75}},
		{"raw 100%", nil},
		{"", nil},
	}
	r := New(len(cases))
	for _, c := range cases {
		r.Emit(0, "s", "k", c.format, c.args...)
	}
	for i, ev := range r.Events() {
		want := cases[i].format
		if len(cases[i].args) > 0 {
			want = fmt.Sprintf(cases[i].format, cases[i].args...)
		}
		if got := ev.Msg(); got != want {
			t.Errorf("Msg() = %q, want %q", got, want)
		}
	}
}

// TestEmitUnsupportedTypePanics: an argument Emit cannot store by value
// is a programming error, named in the panic.
func TestEmitUnsupportedTypePanics(t *testing.T) {
	for _, r := range []*Recorder{New(4), nil} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if r == nil {
					if msg != "" {
						t.Errorf("nil recorder panicked: %q", msg)
					}
					return
				}
				if !strings.Contains(msg, "time.Duration") {
					t.Errorf("panic %q does not name the argument type", msg)
				}
			}()
			r.Emit(0, "s", "k", "d=%v", time.Second)
		}()
	}
}

// emitVia is a forwarding wrapper of the shape the stack uses (resil.emit,
// cache.emit): it passes its variadic through whole.
func emitVia(r *Recorder, kind, format string, args ...any) {
	r.Emit(1, "wrap", kind, format, args...)
}

// TestEmitZeroAlloc: with the recorder nil or live, subscribed, direct or
// through a forwarding wrapper, an emit of every stored type allocates
// nothing — the argument boxes stay on the caller's stack.
func TestEmitZeroAlloc(t *testing.T) {
	live := New(8)
	var seen int
	live.Subscribe(func(ev Event) { seen += len(ev.Format) })
	for i := 0; i < 8; i++ {
		live.Emit(0, "", "", "") // fill the ring: it allocates as it grows
	}
	names := []string{"hdd", "ssd"}
	for _, r := range []*Recorder{nil, live} {
		i := 1000
		allocs := testing.AllocsPerRun(200, func() {
			i++
			f := float64(i) * 1.5
			r.Emit(f, "sess", KindStep, "step=%d io=%.3fs dev=%s ok=%t bytes=%.0f cursor=%d", i, f, names[i%2], i%3 == 0, f*1e6, i+7)
			emitVia(r, KindBucket, "bound=%g entries=[%d,%d) dev=%s", f, i, i+300, names[i%2])
		})
		if allocs != 0 {
			t.Errorf("recorder %v: %v allocs/op, want 0", r != nil, allocs)
		}
	}
	if seen == 0 {
		t.Fatal("subscriber saw nothing")
	}
}

func TestDefaultCapacity(t *testing.T) {
	r := New(0)
	for i := 0; i < 5000; i++ {
		r.Emit(float64(i), "s", "k", "")
	}
	if r.Len() != 4096 {
		t.Fatalf("default cap = %d", r.Len())
	}
}

func TestWriteTo(t *testing.T) {
	r := New(4)
	r.Emit(1.25, "dev", "flow", "done")
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dev") || !strings.Contains(sb.String(), "done") {
		t.Fatalf("output: %q", sb.String())
	}
}

// TestKindValuesPinned pins the string value of every Kind constant.
// Recorded traces are replayed by value (trace-replay interferers, fault
// pairing, dashboards), so renaming a constant's value would silently
// break every consumer of an already-recorded trace. Adding a kind means
// adding a row here; changing a value must fail this test.
func TestKindValuesPinned(t *testing.T) {
	pinned := map[string]string{
		"KindStep":       KindStep,
		"KindWeight":     KindWeight,
		"KindBucket":     KindBucket,
		"KindRefit":      KindRefit,
		"KindFault":      KindFault,
		"KindRecover":    KindRecover,
		"KindCacheHit":   KindCacheHit,
		"KindCacheMiss":  KindCacheMiss,
		"KindCacheEvict": KindCacheEvict,
		"KindPrefetch":   KindPrefetch,
		"KindAttempt":    KindAttempt,
		"KindBreaker":    KindBreaker,
		"KindHedge":      KindHedge,
		"KindBudget":     KindBudget,
		"KindPlace":      KindPlace,
		"KindMigrate":    KindMigrate,
		"KindEgress":     KindEgress,
		"KindBorrow":     KindBorrow,
		"KindRepay":      KindRepay,
	}
	want := map[string]string{
		"KindStep":       "step",
		"KindWeight":     "weight",
		"KindBucket":     "bucket",
		"KindRefit":      "refit",
		"KindFault":      "fault",
		"KindRecover":    "recover",
		"KindCacheHit":   "cache-hit",
		"KindCacheMiss":  "cache-miss",
		"KindCacheEvict": "cache-evict",
		"KindPrefetch":   "prefetch",
		"KindAttempt":    "attempt",
		"KindBreaker":    "breaker",
		"KindHedge":      "hedge",
		"KindBudget":     "budget",
		"KindPlace":      "place",
		"KindMigrate":    "migrate",
		"KindEgress":     "egress",
		"KindBorrow":     "borrow",
		"KindRepay":      "repay",
	}
	for name, got := range pinned {
		if got != want[name] {
			t.Errorf("%s = %q, want %q (pinned; recorded traces replay by value)", name, got, want[name])
		}
	}
	// Distinctness: two kinds sharing a value would merge in filters.
	seen := make(map[string]string, len(pinned))
	for name, v := range pinned {
		if prev, dup := seen[v]; dup {
			t.Errorf("kinds %s and %s share value %q", prev, name, v)
		}
		seen[v] = name
	}
}
