package trace

import (
	"strings"
	"sync"
	"testing"
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
	if evs[0].Msg != "step 0" || evs[1].Msg != "w=300" {
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
		if evs[i].Msg != w {
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
	if len(as) != 2 || as[1].Msg != "z" {
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
	if len(got) != 1 || got[0].Msg != "hello" {
		t.Fatalf("subscriber: %+v", got)
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

func TestConcurrentEmit(t *testing.T) {
	r := New(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Emit(float64(i), "g", "k", "%d", g)
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 128 {
		t.Fatalf("len = %d", r.Len())
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
