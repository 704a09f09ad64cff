package resil

// Opens returns how many times the breaker has tripped.
func (b *Breaker) Opens() int { return b.opens }
