// Package lockfix is a tangolint fixture: seeded lock-order cycles for
// the lockorder analyzer. Each want-comment marks where the analyzer
// reports the cycle (its first edge, from its alphabetically-first
// class).
package lockfix

import "sync"

// Alpha and Beta are locked in opposite orders by the two functions
// below — the textbook AB/BA deadlock.
type Alpha struct {
	mu sync.Mutex
	n  int
}

type Beta struct {
	mu sync.Mutex
	n  int
}

func AlphaThenBeta(a *Alpha, b *Beta) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want lockorder "lock-order cycle"
	b.n++
	b.mu.Unlock()
}

func BetaThenAlpha(a *Alpha, b *Beta) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
}

// Gamma and Delta form a cycle only interprocedurally: GammaThenDelta
// holds Gamma.mu across a call into lockDelta, which acquires Delta.mu.
type Gamma struct {
	mu sync.Mutex
	n  int
}

type Delta struct {
	mu sync.Mutex
	n  int
}

func lockDelta(d *Delta) {
	d.mu.Lock()
	d.n++
	d.mu.Unlock()
}

func GammaThenDelta(g *Gamma, d *Delta) {
	g.mu.Lock()
	lockDelta(d)
	g.mu.Unlock()
}

func DeltaThenGamma(g *Gamma, d *Delta) {
	d.mu.Lock()
	g.mu.Lock() // want lockorder "lock-order cycle"
	g.n++
	g.mu.Unlock()
	d.mu.Unlock()
}

// Consistent ordering across every execution: Alpha before Gamma,
// everywhere. No cycle, no finding.
func ConsistentOne(a *Alpha, g *Gamma) {
	a.mu.Lock()
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
	a.mu.Unlock()
}

func ConsistentTwo(a *Alpha, g *Gamma) {
	a.mu.Lock()
	defer a.mu.Unlock()
	g.mu.Lock()
	defer g.mu.Unlock()
	a.n += g.n
}

// The *Locked suffix convention composes: bumpLocked runs under the
// caller's Beta.mu and acquires nothing itself, so calling it while a
// lock is held adds no ordering edge.
func (b *Beta) bumpLocked() { b.n++ }

func UnderBeta(b *Beta) {
	b.mu.Lock()
	b.bumpLocked()
	b.mu.Unlock()
}

// Rho nests two locks of the same class (parent then child). That is a
// real hazard in general — two goroutines walking the chain from
// different ends deadlock — and the analyzer reports it as a self-cycle;
// here the nesting is deliberate and suppressed with a reason.
type Rho struct {
	mu   sync.Mutex
	next *Rho
	n    int
}

func Chain2(r *Rho) {
	r.mu.Lock()
	//lint:ignore lockorder traversal always runs root-to-leaf, so same-class nesting is acyclic by construction
	r.next.mu.Lock()
	r.next.n++
	r.next.mu.Unlock()
	r.mu.Unlock()
}
