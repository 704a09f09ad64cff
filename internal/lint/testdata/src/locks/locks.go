// Package locks is a tangolint fixture: seeded violations of the
// locksafety analyzer, `// guarded by <mu>` fields and vars touched
// outside the critical section. Copied mutexes are go vet's copylocks
// check, not tangolint's; an unbalanced Lock is the tests' (it deadlocks
// the next caller).
package locks

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// Released on one branch: not held on every path after the if.
func badAfterBranch(c *counter, cond bool) int {
	c.mu.Lock()
	if cond {
		c.mu.Unlock()
	}
	return c.n // want locksafety "guarded by c.mu but accessed without holding it"
}

// Guarded field read outside any critical section.
func badUnguardedRead(c *counter) int {
	return c.n // want locksafety "guarded by c.mu but accessed without holding it"
}

// Guarded field write outside any critical section.
func badUnguardedWrite(c *counter) {
	c.n = 42 // want locksafety "guarded by c.mu but accessed without holding it"
}

// Package-level variables can be annotated too.
var (
	tableMu sync.Mutex
	table   = map[string]int{} // guarded by tableMu
)

func badVarAccess() int {
	return len(table) // want locksafety "guarded by tableMu but accessed without holding it"
}

// The fields of a package-level anonymous struct (runpool's pool).
var registry struct {
	mu    sync.Mutex
	names []string // guarded by mu
}

func badAnonField() int {
	return len(registry.names) // want locksafety "guarded by registry.mu but accessed without holding it"
}

// A field of a generic type, read through an instantiation (harness's
// memo).
type cache[V any] struct {
	mu sync.Mutex
	m  map[string]V // guarded by mu
}

func (c *cache[V]) badGenericField() int {
	return len(c.m) // want locksafety "guarded by c.mu but accessed without holding it"
}

// --- correct forms, which must stay silent ---

func goodDefer(c *counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func goodPaired(c *counter, cond bool) int {
	c.mu.Lock()
	if cond {
		c.mu.Unlock()
		return 1
	}
	n := c.n
	c.mu.Unlock()
	return n
}

// The *Locked suffix convention: callers hold the lock.
func bumpLocked(c *counter) { c.n++ }

func goodVarAccess() int {
	tableMu.Lock()
	defer tableMu.Unlock()
	return len(table)
}

func goodAnonField() int {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	return len(registry.names)
}

func (c *cache[V]) goodGenericField(k string) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[k]
}
