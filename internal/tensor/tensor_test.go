package tensor

import "testing"

func TestNewAndShape(t *testing.T) {
	a := New(3, 4, 5)
	if a.Rank() != 3 || a.Len() != 60 {
		t.Fatalf("rank %d len %d", a.Rank(), a.Len())
	}
	d := a.Dims()
	if d[0] != 3 || d[1] != 4 || d[2] != 5 {
		t.Fatalf("dims %v", d)
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][]int{{}, {0}, {-1, 3}, {3, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) should panic", dims)
				}
			}()
			New(dims...)
		}()
	}
}

func TestFromDataChecksLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	FromData([]float64{1, 2, 3}, 2, 2)
}

func TestRowMajorLayout(t *testing.T) {
	a := New(2, 3)
	a.Set(42, 1, 2)
	if a.Data()[5] != 42 {
		t.Fatalf("row-major offset wrong: %v", a.Data())
	}
	if a.At(1, 2) != 42 {
		t.Fatalf("At(1,2) = %v", a.At(1, 2))
	}
	if a.Offset(1, 2) != 5 {
		t.Fatalf("Offset = %d", a.Offset(1, 2))
	}
}

func TestIndexBoundsPanic(t *testing.T) {
	a := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-bounds")
		}
	}()
	a.At(2, 0)
}

func TestRankMismatchPanic(t *testing.T) {
	a := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on rank mismatch")
		}
	}()
	a.At(1)
}

func TestCloneIsDeep(t *testing.T) {
	a := New(2, 2)
	a.Set(1, 0, 0)
	b := a.Clone()
	b.Set(99, 0, 0)
	if a.At(0, 0) != 1 {
		t.Fatal("clone aliases original")
	}
	if !a.SameShape(b) {
		t.Fatal("clone shape differs")
	}
}

func TestAbsDiffMaxShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).AbsDiffMax(New(4))
}

func TestMinMaxRange(t *testing.T) {
	a := FromData([]float64{3, -1, 4, 1.5}, 4)
	min, max := a.MinMax()
	if min != -1 || max != 4 {
		t.Fatalf("minmax = %v %v", min, max)
	}
	if a.Range() != 5 {
		t.Fatalf("range = %v", a.Range())
	}
}

func TestEqualAndAbsDiffMax(t *testing.T) {
	a := FromData([]float64{1, 2}, 2)
	b := FromData([]float64{1, 2.5}, 2)
	if got := a.AbsDiffMax(b); got != 0.5 {
		t.Fatalf("absdiffmax = %v", got)
	}
	if got := a.AbsDiffMax(a.Clone()); got != 0 {
		t.Fatalf("absdiffmax against a clone = %v", got)
	}
}

func TestStringSummary(t *testing.T) {
	a := FromData([]float64{1, 2, 3, 4}, 2, 2)
	s := a.String()
	if s == "" {
		t.Fatal("empty summary")
	}
}
