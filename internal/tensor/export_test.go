package tensor

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.dims) }
