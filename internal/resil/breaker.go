package resil

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed — healthy; attempts flow through.
	BreakerClosed BreakerState = iota
	// BreakerOpen — tripped; attempts are denied until the cooldown
	// elapses on the sim clock.
	BreakerOpen
	// BreakerHalfOpen — cooldown elapsed; exactly one probe attempt is
	// admitted. Success closes the breaker, failure re-opens it.
	BreakerHalfOpen
)

// Breaker is a circuit breaker for one target (a device or cgroup name),
// shared by every policy key that addresses the target. Transitions are
// driven entirely by the virtual clock passed to allow, so breaker
// behavior is deterministic.
type Breaker struct {
	threshold int     // consecutive failures before opening
	cooldown  float64 // seconds open before the half-open probe
	fails     int     // consecutive failures
	state     BreakerState
	until     float64 // when an open breaker half-opens
	probing   bool    // a half-open probe is in flight
	opens     int
}

// State returns the breaker position as of virtual time now (an open
// breaker whose cooldown has elapsed reports half-open).
func (b *Breaker) State(now float64) BreakerState {
	if b.state == BreakerOpen && now >= b.until {
		return BreakerHalfOpen
	}
	return b.state
}

// allow reports whether an attempt may proceed at virtual time now. An
// open breaker past its cooldown admits exactly one half-open probe.
//
//tango:hotpath
func (b *Breaker) allow(now float64) bool {
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now < b.until {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// onSuccess records a successful attempt. It reports whether the breaker
// closed from a tripped state (a recovery worth tracing).
//
//tango:hotpath
func (b *Breaker) onSuccess() bool {
	recovered := b.state != BreakerClosed || b.fails > 0
	b.fails = 0
	b.state = BreakerClosed
	b.probing = false
	return recovered
}

// onFailure records a failed attempt at virtual time now. It reports
// whether this failure tripped (or re-tripped) the breaker.
//
//tango:hotpath
func (b *Breaker) onFailure(now float64) bool {
	b.fails++
	if b.state == BreakerHalfOpen || (b.state == BreakerClosed && b.fails >= b.threshold) {
		b.state = BreakerOpen
		b.probing = false
		b.until = now + b.cooldown
		b.opens++
		return true
	}
	return false
}
