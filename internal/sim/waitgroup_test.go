package sim

import "testing"

func TestWaitGroupBasic(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("parent", func(p *Proc) {
		wg := NewWaitGroup(e)
		for i, d := range []float64{3, 1, 2} {
			name := string(rune('a' + i))
			dd := d
			wg.Go(name, func(c *Proc) {
				c.Sleep(dd)
				order = append(order, name)
			})
		}
		wg.Wait(p)
		order = append(order, "parent")
		if p.Now() != 3 {
			t.Errorf("parent resumed at %v, want 3", p.Now())
		}
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []string{"b", "c", "a", "parent"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestWaitGroupZeroCountReturnsImmediately(t *testing.T) {
	e := NewEngine()
	done := false
	e.Spawn("p", func(p *Proc) {
		wg := NewWaitGroup(e)
		wg.Wait(p) // no tasks
		done = true
		if p.Now() != 0 {
			t.Errorf("waited despite zero count")
		}
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("process did not finish")
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	wg.Done()
}

func TestWaitGroupCount(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e)
	wg.Add(3)
	wg.Done()
	released := -1.0
	e.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		released = p.Now()
	})
	e.At(5, wg.Done)
	e.At(9, wg.Done)
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if released != 9 {
		t.Fatalf("waiter released at %v, want 9 (the third Done)", released)
	}
}

func TestWaitGroupDoubleWaiterPanics(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e)
	wg.Add(1)
	e.Spawn("w1", func(p *Proc) { wg.Wait(p) })
	e.Spawn("w2", func(p *Proc) {
		p.Sleep(1)
		defer func() {
			if recover() == nil {
				t.Error("expected panic on second waiter")
			}
			wg.Done() // release w1 so the engine drains
		}()
		wg.Wait(p)
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
}
