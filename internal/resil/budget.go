package resil

// bucket is a token bucket in virtual time, refilled lazily on access so
// it costs nothing while idle. A zero-cap bucket is unlimited (always
// grants); retry budgets use that for keys that draw only on the
// node-wide cap.
type bucket struct {
	cap    float64 // maximum tokens; 0 = unlimited
	refill float64 // tokens per virtual second
	tokens float64
	last   float64 // virtual time of the last refill
}

// advance refills the bucket for the elapsed virtual time.
//
//tango:hotpath
func (b *bucket) advance(now float64) {
	if b.cap == 0 {
		return
	}
	if dt := now - b.last; dt > 0 {
		b.tokens = min(b.tokens+float64(dt*b.refill), b.cap)
	}
	b.last = now
}

// has reports whether a token is available at virtual time now without
// taking it.
//
//tango:hotpath
func (b *bucket) has(now float64) bool {
	if b.cap == 0 {
		return true
	}
	b.advance(now)
	return b.tokens >= 1
}

// take consumes one token if available.
//
//tango:hotpath
func (b *bucket) take(now float64) bool {
	if b.cap == 0 {
		return true
	}
	b.advance(now)
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// wait returns the virtual seconds until one token is available (0 if
// one is available now). Unbounded (mandatory) retries use this to pace
// themselves to the refill rate when the budget runs dry.
func (b *bucket) wait(now float64) float64 {
	if b.cap == 0 {
		return 0
	}
	b.advance(now)
	if b.tokens >= 1 {
		return 0
	}
	if b.refill <= 0 {
		return 0 // no refill configured: pacing cannot help, do not stall forever
	}
	return (1 - b.tokens) / b.refill
}

// takeToken consumes one retry/hedge token from the key's bucket and the
// node-wide bucket; both must have one (checked before either is drawn so
// a denial leaves both intact).
//
//tango:hotpath
func (k *Key) takeToken(now float64) bool {
	if !k.bucket.has(now) || !k.c.node.has(now) {
		return false
	}
	k.bucket.take(now)
	k.c.node.take(now)
	return true
}

// tokenWait returns how long until both buckets can grant a token.
func (k *Key) tokenWait(now float64) float64 {
	w := k.bucket.wait(now)
	if nw := k.c.node.wait(now); nw > w {
		w = nw
	}
	return w
}
