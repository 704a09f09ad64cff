// Package tensor provides dense N-dimensional float64 tensors. The paper
// treats simulation analysis output "as a tensor (or a uniform grid)"
// (§III-B2); these tensors are the objects that the refactorization
// pipeline decomposes and recomposes.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major N-d array of float64.
type Tensor struct {
	dims    []int
	strides []int
	data    []float64
}

// New allocates a zero tensor with the given dimensions. It panics on
// empty or non-positive dimensions (shape errors are programmer errors).
func New(dims ...int) *Tensor {
	if len(dims) == 0 {
		panic("tensor: no dimensions")
	}
	return FromData(make([]float64, Size(dims)), dims...)
}

// FromData wraps existing data (not copied) with the given dims. It panics
// if len(data) does not match the shape.
func FromData(data []float64, dims ...int) *Tensor {
	if n := Size(dims); len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d)", len(data), dims, n))
	}
	t := &Tensor{dims: append([]int(nil), dims...), data: data}
	t.strides = Strides(t.dims)
	return t
}

// Size returns the element count of dims; it panics on a non-positive
// dimension.
func Size(dims []int) int {
	n := 1
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: invalid dimension %d", d))
		}
		n *= d
	}
	return n
}

// Strides returns the row-major strides of dims.
func Strides(dims []int) []int {
	s := make([]int, len(dims))
	st := 1
	for i := len(dims) - 1; i >= 0; i-- {
		s[i] = st
		st *= dims[i]
	}
	return s
}

// Dims returns the tensor's dimensions (do not mutate).
func (t *Tensor) Dims() []int { return t.dims }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the backing slice in row-major order (mutable).
func (t *Tensor) Data() []float64 { return t.data }

// Offset converts a multi-index to a flat offset.
func (t *Tensor) Offset(idx ...int) int {
	if len(idx) != len(t.dims) {
		panic(fmt.Sprintf("tensor: index rank %d vs tensor rank %d", len(idx), len(t.dims)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.dims[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for dims %v", idx, t.dims))
		}
		off += x * t.strides[i]
	}
	return off
}

// At returns the element at the multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.Offset(idx...)] }

// Set stores v at the multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.Offset(idx...)] = v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.dims...)
	copy(c.data, t.data)
	return c
}

// SameShape reports whether two tensors have identical dimensions.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.dims) != len(o.dims) {
		return false
	}
	for i := range t.dims {
		if t.dims[i] != o.dims[i] {
			return false
		}
	}
	return true
}

// MinMax returns the minimum and maximum element values. For an empty
// tensor (impossible by construction) it would return (+Inf, -Inf).
func (t *Tensor) MinMax() (min, max float64) {
	min, max = math.Inf(1), math.Inf(-1)
	for _, v := range t.data {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Range returns max-min.
func (t *Tensor) Range() float64 {
	min, max := t.MinMax()
	return max - min
}

// AbsDiffMax returns the maximum absolute element-wise difference.
// Panics on shape mismatch.
func (t *Tensor) AbsDiffMax(o *Tensor) float64 {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: AbsDiffMax shape mismatch %v vs %v", t.dims, o.dims))
	}
	var m float64
	for i := range t.data {
		d := math.Abs(t.data[i] - o.data[i])
		if d > m {
			m = d
		}
	}
	return m
}

// String summarizes the tensor (shape and value range) for debugging.
func (t *Tensor) String() string {
	min, max := t.MinMax()
	return fmt.Sprintf("Tensor%v[%d elems, %.4g..%.4g]", t.dims, len(t.data), min, max)
}
