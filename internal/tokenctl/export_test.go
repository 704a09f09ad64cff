package tokenctl

// LentOut returns the outstanding principal this bucket has on loan.
func (b *Bucket) LentOut() float64 { return b.lentOut }

// Owed returns the outstanding principal this bucket owes its lenders.
func (b *Bucket) Owed() float64 {
	t := 0.0
	for i := range b.loans {
		t += b.loans[i].owed
	}
	return t
}

// Active reports how many sessions are currently retrieving.
func (c *Controller) Active() int { return c.active }
