package runpool

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// withWorkers runs fn with the pool temporarily at width n.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := Workers()
	SetWorkers(n)
	defer SetWorkers(prev)
	fn()
}

func TestResultsCollectInSubmissionOrder(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		withWorkers(t, w, func() {
			const n = 50
			tasks := make([]*Task[int], n)
			for i := 0; i < n; i++ {
				i := i
				tasks[i] = Submit(fmt.Sprintf("job%d", i), func() int { return i * i })
			}
			for i, task := range tasks {
				if got := task.Wait(); got != i*i {
					t.Fatalf("w=%d task %d = %d, want %d", w, i, got, i*i)
				}
			}
		})
	}
}

func TestSequentialModeRunsInlineAtWait(t *testing.T) {
	withWorkers(t, 1, func() {
		var order []int
		a := Submit("a", func() int { order = append(order, 1); return 1 })
		b := Submit("b", func() int { order = append(order, 2); return 2 })
		// Nothing may run before Wait in sequential mode, however long
		// Wait is put off.
		time.Sleep(20 * time.Millisecond)
		if len(order) != 0 {
			t.Fatalf("jobs ran before Wait: %v", order)
		}
		// Out-of-order Wait still runs each job on this goroutine, at
		// Wait time — execution order is collection order.
		if b.Wait() != 2 || a.Wait() != 1 {
			t.Fatal("wrong results")
		}
		if order[0] != 2 || order[1] != 1 {
			t.Fatalf("inline execution order %v, want [2 1]", order)
		}
	})
}

func TestNestedSubmissionCompletes(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		withWorkers(t, w, func() {
			// Outer jobs each fan out inner jobs and wait on them; the
			// claim-or-wait rule must keep this deadlock-free at any width.
			outer := make([]*Task[int], 6)
			for i := range outer {
				i := i
				outer[i] = Submit(fmt.Sprintf("outer%d", i), func() int {
					inner := make([]*Task[int], 4)
					for j := range inner {
						j := j
						inner[j] = Submit(fmt.Sprintf("inner%d.%d", i, j), func() int { return i*10 + j })
					}
					sum := 0
					for _, task := range inner {
						sum += task.Wait()
					}
					return sum
				})
			}
			for i, task := range outer {
				want := 4*i*10 + 6
				if got := task.Wait(); got != want {
					t.Fatalf("w=%d outer %d = %d, want %d", w, i, got, want)
				}
			}
		})
	}
}

func TestJobPanicResurfacesAtWait(t *testing.T) {
	for _, w := range []int{1, 4} {
		withWorkers(t, w, func() {
			task := Submit("boom", func() int { panic("exploded") })
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("w=%d: panic did not resurface", w)
				}
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, "boom") || !strings.Contains(msg, "exploded") {
					t.Fatalf("panic message %q lacks job name or cause", msg)
				}
			}()
			task.Wait()
		})
	}
}

func TestEachJobRunsExactlyOnce(t *testing.T) {
	withWorkers(t, 4, func() {
		const n = 200
		var runs atomic.Int32
		tasks := make([]*Task[struct{}], n)
		for i := 0; i < n; i++ {
			tasks[i] = Submit("once", func() struct{} {
				runs.Add(1)
				return struct{}{}
			})
		}
		for _, task := range tasks {
			task.Wait()
		}
		if got := runs.Load(); got != n {
			t.Fatalf("ran %d jobs, want %d", got, n)
		}
	})
}

func TestSetWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	prev := Workers()
	defer SetWorkers(prev)
	SetWorkers(0)
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("after SetWorkers(0), Workers() = %d, want GOMAXPROCS %d", got, want)
	}
	SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("after SetWorkers(3), Workers() = %d", got)
	}
}

func TestPoolNeverExceedsWidth(t *testing.T) {
	const width = 3
	withWorkers(t, width, func() {
		gate := make(chan struct{})
		var started atomic.Int32
		tasks := make([]*Task[struct{}], 4*width)
		for i := range tasks {
			tasks[i] = Submit("gated", func() struct{} {
				started.Add(1)
				<-gate
				return struct{}{}
			})
		}
		// Nothing runs inline before the first Wait, and no job ends
		// before the gate opens, so every job started so far holds a slot.
		for deadline := time.Now().Add(5 * time.Second); started.Load() < width && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond) // room for a job past the width to start
		if got := started.Load(); got != width {
			t.Errorf("%d jobs ran at once on a pool of width %d", got, width)
		}
		close(gate)
		for _, task := range tasks {
			task.Wait()
		}
	})
}

func TestIdlePoolLeavesNoGoroutines(t *testing.T) {
	withWorkers(t, 4, func() {
		base := runtime.NumGoroutine()
		for round := 0; round < 5; round++ {
			tasks := make([]*Task[int], 16)
			for i := range tasks {
				tasks[i] = Submit("idle", func() int { return i })
			}
			for _, task := range tasks {
				task.Wait()
			}
			// A pool goroutine may still be handing its slot back.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("round %d: %d goroutines after Wait, %d before", round, runtime.NumGoroutine(), base)
				}
			}
		}
	})
}
