package coordinator

// Active reports how many sessions are currently retrieving. The count
// is maintained incrementally; no sweep.
func (a *Allocator) Active() int { return a.active }
