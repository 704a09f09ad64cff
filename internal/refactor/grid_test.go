package refactor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tango/internal/tensor"
)

func TestCoarseDims(t *testing.T) {
	cases := []struct {
		dims []int
		d    int
		want []int
	}{
		{[]int{5}, 2, []int{3}},
		{[]int{4}, 2, []int{2}},
		{[]int{9, 9}, 2, []int{5, 5}},
		{[]int{1}, 2, []int{1}},
		{[]int{10, 7}, 3, []int{4, 3}},
	}
	for _, c := range cases {
		got := CoarseDims(c.dims, c.d)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("CoarseDims(%v,%d) = %v, want %v", c.dims, c.d, got, c.want)
			}
		}
	}
}

func TestRestrict1D(t *testing.T) {
	f := tensor.FromData([]float64{0, 1, 2, 3, 4, 5, 6}, 7)
	c := Restrict(f, 2)
	want := []float64{0, 2, 4, 6}
	if c.Len() != 4 {
		t.Fatalf("len = %d", c.Len())
	}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("restrict = %v, want %v", c.Data(), want)
		}
	}
}

func TestRestrict2D(t *testing.T) {
	f := tensor.New(5, 5)
	for r := 0; r < 5; r++ {
		for cc := 0; cc < 5; cc++ {
			f.Set(float64(r*10+cc), r, cc)
		}
	}
	c := Restrict(f, 2)
	if c.Dims()[0] != 3 || c.Dims()[1] != 3 {
		t.Fatalf("dims = %v", c.Dims())
	}
	// Kept rows/cols: 0, 2, 4.
	if c.At(1, 2) != 24 || c.At(2, 0) != 40 || c.At(0, 0) != 0 {
		t.Fatalf("restricted values wrong: %v", c.Data())
	}
}

func TestRestrictPanicsOnBadFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Restrict(tensor.New(4), 1)
}

func TestProlongateExactAtNodes(t *testing.T) {
	f := tensor.FromData([]float64{3, 0, 7, 0, -2}, 5)
	c := Restrict(f, 2) // [3 7 -2]
	p := Prolongate(c, []int{5}, 2)
	for _, i := range []int{0, 2, 4} {
		if p.Data()[i] != f.Data()[i] {
			t.Fatalf("prolongation not exact at node %d: %v", i, p.Data())
		}
	}
	// Midpoints are averages.
	if p.Data()[1] != 5 || p.Data()[3] != 2.5 {
		t.Fatalf("midpoints wrong: %v", p.Data())
	}
}

func TestProlongateReproducesLinearField(t *testing.T) {
	// Multilinear interpolation is exact for affine functions (within
	// the span of coarse nodes).
	f := tensor.New(9, 9)
	for r := 0; r < 9; r++ {
		for c := 0; c < 9; c++ {
			f.Set(2*float64(r)-3*float64(c)+1, r, c)
		}
	}
	c := Restrict(f, 2)
	p := Prolongate(c, []int{9, 9}, 2)
	if p.AbsDiffMax(f) > 1e-12 {
		t.Fatalf("linear field not reproduced: max err %v", p.AbsDiffMax(f))
	}
}

func TestProlongateClampsTail(t *testing.T) {
	// n=6, d=2: coarse nodes at 0,2,4; indices 5 is beyond the last node
	// and must clamp to it.
	f := tensor.FromData([]float64{0, 0, 0, 0, 8, 0}, 6)
	c := Restrict(f, 2) // values at 0,2,4 -> [0 0 8]
	p := Prolongate(c, []int{6}, 2)
	if p.Data()[5] != 8 {
		t.Fatalf("tail clamp: %v", p.Data())
	}
	if p.Data()[4] != 8 || p.Data()[3] != 4 {
		t.Fatalf("interior: %v", p.Data())
	}
}

func TestProlongate3D(t *testing.T) {
	f := tensor.New(5, 5, 5)
	rng := rand.New(rand.NewSource(1))
	for i := range f.Data() {
		f.Data()[i] = rng.NormFloat64()
	}
	c := Restrict(f, 2)
	p := Prolongate(c, []int{5, 5, 5}, 2)
	// Exact at all kept points.
	for r := 0; r < 5; r += 2 {
		for s := 0; s < 5; s += 2 {
			for u := 0; u < 5; u += 2 {
				if p.At(r, s, u) != f.At(r, s, u) {
					t.Fatalf("3D node (%d,%d,%d) mismatch", r, s, u)
				}
			}
		}
	}
	// Center point (1,1,1) is the mean of the 8 surrounding nodes.
	var sum float64
	for _, r := range []int{0, 2} {
		for _, s := range []int{0, 2} {
			for _, u := range []int{0, 2} {
				sum += f.At(r, s, u)
			}
		}
	}
	if math.Abs(p.At(1, 1, 1)-sum/8) > 1e-12 {
		t.Fatalf("trilinear center wrong: %v vs %v", p.At(1, 1, 1), sum/8)
	}
}

func TestProlongateShapeMismatchPanics(t *testing.T) {
	c := tensor.New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Prolongate(c, []int{100}, 2) // CoarseDims(100,2)=50 != 3
}

func TestRestrictDecimation4(t *testing.T) {
	f := tensor.New(9)
	for i := range f.Data() {
		f.Data()[i] = float64(i)
	}
	c := Restrict(f, 4)
	want := []float64{0, 4, 8}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("d=4 restrict: %v", c.Data())
		}
	}
	p := Prolongate(c, []int{9}, 4)
	if p.Data()[2] != 2 { // linear between 0 and 4
		t.Fatalf("d=4 prolongate: %v", p.Data())
	}
}

// prolongateReference is the per-point definition Prolongate's row kernel
// must reproduce bit for bit: for every output point, walk all 2^rank
// corners, rebuild the weight from 1.0, skip zero-weight corners.
func prolongateReference(coarse *tensor.Tensor, fineDims []int, d int) *tensor.Tensor {
	cd := coarse.Dims()
	rank := len(fineDims)
	out := tensor.New(fineDims...)
	src := coarse.Data()
	dst := out.Data()

	lo := make([][]int, rank)
	fr := make([][]float64, rank)
	for i := 0; i < rank; i++ {
		n := fineDims[i]
		nc := cd[i]
		lo[i] = make([]int, n)
		fr[i] = make([]float64, n)
		for x := 0; x < n; x++ {
			p := x / d
			f := float64(x-p*d) / float64(d)
			if p >= nc-1 {
				p = nc - 1
				f = 0
			}
			lo[i][x] = p
			fr[i][x] = f
		}
	}
	cStrides := tensor.Strides(cd)

	corners := 1 << rank
	idx := make([]int, rank)
	for off := range dst {
		var v float64
		for c := 0; c < corners; c++ {
			w := 1.0
			cOff := 0
			for i := 0; i < rank; i++ {
				x := idx[i]
				if c&(1<<i) != 0 {
					f := fr[i][x]
					if f == 0 {
						w = 0
						break
					}
					w *= f
					cOff += (lo[i][x] + 1) * cStrides[i]
				} else {
					w *= 1 - fr[i][x]
					cOff += lo[i][x] * cStrides[i]
				}
			}
			if w != 0 {
				v += w * src[cOff]
			}
		}
		dst[off] = v
		increment(idx, fineDims)
	}
	return out
}

func TestProlongateMatchesReference(t *testing.T) {
	shapes := [][]int{
		{1}, {2}, {7}, {40000}, // rank 1, the last one parallel
		{1, 9}, {9, 1}, {6, 11}, {17, 17},
		{257, 260}, {1025, 1025}, // >= par.Threshold, rows straddle chunks
		{1, 1, 1}, {5, 1, 7}, {9, 10, 11}, {33, 34, 35},
		{3, 1, 4, 6}, {7, 8, 9, 10}, {14, 15, 16, 17},
		{3, 2, 3, 2, 3}, // rank 5: scratch beyond the stack arrays
	}
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, dims := range shapes {
			for _, d := range []int{2, 3, 4} {
				if dims[0] == 1025 && d != 2 {
					continue // one pass over the large grid is enough
				}
				rng := rand.New(rand.NewSource(int64(len(dims)*100 + d)))
				coarse := tensor.New(CoarseDims(dims, d)...)
				cdat := coarse.Data()
				for i := range cdat {
					cdat[i] = rng.NormFloat64()
				}
				// Specials land on interior and boundary nodes alike, so
				// some sit under a zero-weight corner (must not leak) and
				// some under a positive one (must propagate).
				for i := 0; i < len(cdat); i += 1 + len(cdat)/13 {
					cdat[i] = specials[(i+d)%len(specials)]
				}
				cdat[len(cdat)-1] = specials[d%len(specials)]

				want := prolongateReference(coarse, dims, d).Data()
				got := Prolongate(coarse, dims, d).Data()
				// prolongateInto must assign every point of a buffer that
				// holds something else: a poison NaN left behind, or one
				// added into, keeps a payload no computed value has.
				dirty := make([]float64, len(want))
				for i := range dirty {
					dirty[i] = math.Float64frombits(0x7ff8dead00000000)
				}
				prolongateInto(dirty, coarse, dims, d)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("GOMAXPROCS=%d dims=%v d=%d: point %d = %v (%#x), reference %v (%#x)",
							procs, dims, d, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
					if math.Float64bits(dirty[i]) != math.Float64bits(want[i]) {
						t.Fatalf("GOMAXPROCS=%d dims=%v d=%d: prolongateInto point %d = %v (%#x), reference %v (%#x)",
							procs, dims, d, i, dirty[i], math.Float64bits(dirty[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// TestProlongateAllocsPerCall holds the objects one large call allocates
// under the per-point loop's count (52 on two procs, 33 of them its
// per-chunk index slices), so per-chunk heap scratch cannot creep into the
// row kernel. Two procs because par's goroutines are part of the count.
func TestProlongateAllocsPerCall(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	c := Restrict(benchGrid(1025), 2)
	dims := []int{1025, 1025}
	if got := testing.AllocsPerRun(5, func() { Prolongate(c, dims, 2) }); got > 52 {
		t.Fatalf("Prolongate(1025x1025) allocates %v objects per call, want <= 52", got)
	}
}
