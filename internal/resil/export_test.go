package resil

// Opens returns how many times the breaker has tripped.
func (b *Breaker) Opens() int { return b.opens }

// Stats returns the key's counters.
func (k *Key) Stats() KeyStats { return k.stats }

// Policy returns the key's policy.
func (k *Key) Policy() Policy { return *k.pol }

// Breaker returns the breaker for a target, or nil if there is none yet:
// a read key makes its target's at the first read, a weight key only at
// the target's first failed write.
func (c *Controller) Breaker(target string) *Breaker { return c.breakers[target] }
