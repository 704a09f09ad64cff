// Package blkio emulates the Linux cgroups block-I/O controller as used by
// container runtimes: per-cgroup proportional weight (blkio.weight,
// 100–1000), per-device byte-rate throttles
// (blkio.throttle.read_bps_device / write_bps_device), and runtime
// adjustment without restarting the container.
//
// The semantics mirror the kernel's CFQ/BFQ proportional-share behaviour
// that the Tango paper relies on: weights divide the device bandwidth that
// is actually available, so a static weight cannot provide performance
// isolation when the number of competitors changes (paper Fig 1 /
// Motivation 2), while a runtime-adjusted weight can steer allocation
// (paper §III-C step 3).
package blkio

import (
	"errors"
	"fmt"
	"sync"

	"tango/internal/slab"
)

// Weight bounds as enforced by the kernel (and Docker's --blkio-weight).
const (
	MinWeight     = 100
	MaxWeight     = 1000
	DefaultWeight = 100 // the paper's default container weight (§IV-A)
)

// ClampWeight restricts w to the valid blkio weight range.
func ClampWeight(w int) int {
	if w < MinWeight {
		return MinWeight
	}
	if w > MaxWeight {
		return MaxWeight
	}
	return w
}

// Cgroup is a control group with block-I/O parameters. A Cgroup is shared
// by reference between the container that owns it and the devices that
// schedule its flows. Mutations notify subscribed devices so that
// proportional shares are recomputed immediately (runtime adjustment).
type Cgroup struct {
	mu   sync.Mutex
	name string // immutable after construction

	weight     int     // guarded by mu
	readBps    float64 // guarded by mu (0 = unlimited)
	writeBps   float64 // guarded by mu (0 = unlimited)
	weightFail bool    // guarded by mu; injected fault: weight writes error

	subs []Subscriber // guarded by mu; snapshot before invoking outside the lock

	// accounting
	bytesRead    float64 // guarded by mu
	bytesWritten float64 // guarded by mu
}

// Subscriber is told after any parameter change of a cgroup it subscribed
// to. Implementations are compared with ==, so they must be pointers.
type Subscriber interface{ Touch() }

// NewCgroup creates a cgroup with the default weight and no throttles.
func NewCgroup(name string) *Cgroup {
	return &Cgroup{name: name, weight: DefaultWeight}
}

// Name returns the cgroup name.
func (c *Cgroup) Name() string { return c.name }

// Weight returns the current proportional weight.
func (c *Cgroup) Weight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.weight
}

// ErrWeightWrite is returned by TrySetWeight while a weight-write fault
// is injected (the kernel rejecting the blkio.weight write: EIO on the
// cgroupfs file, a crashed agent, a read-only remount).
var ErrWeightWrite = errors.New("blkio: weight write failed")

// weightWriteError is TrySetWeight's failure: pointer-shaped, so boxing it
// allocates nothing per injected fault; the text is built when read.
type weightWriteError struct{ c *Cgroup }

func (e weightWriteError) Unwrap() error { return ErrWeightWrite }
func (e weightWriteError) Error() string {
	return fmt.Sprintf("cgroup %q: %v", e.c.name, ErrWeightWrite)
}

// SetWeight adjusts the proportional weight at runtime, clamping to
// [MinWeight, MaxWeight], and notifies subscribers. This mirrors a
// fire-and-forget write to blkio.weight: it requires neither
// administrator access nor a container restart (paper §III-C), and —
// like shell redirection into cgroupfs — it silently does nothing while
// a weight-write fault is injected. Fault-tolerant callers use
// TrySetWeight and re-apply.
func (c *Cgroup) SetWeight(w int) {
	_ = c.TrySetWeight(w)
}

// TrySetWeight is SetWeight on a fallible path: while a weight-write
// fault is injected (SetWeightFailing) it returns ErrWeightWrite and
// leaves the weight unchanged.
func (c *Cgroup) TrySetWeight(w int) error {
	c.mu.Lock()
	if c.weightFail {
		c.mu.Unlock()
		return weightWriteError{c}
	}
	c.weight = ClampWeight(w)
	subs := c.subs
	c.mu.Unlock()
	for _, s := range subs {
		s.Touch()
	}
	return nil
}

// SetWeightFailing toggles the injected weight-write fault (see
// internal/fault). While failing, TrySetWeight errors and SetWeight is a
// silent no-op; reads and throttle writes are unaffected.
func (c *Cgroup) SetWeightFailing(fail bool) {
	c.mu.Lock()
	c.weightFail = fail
	c.mu.Unlock()
}

// WeightFailing reports whether weight writes are currently failing.
func (c *Cgroup) WeightFailing() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.weightFail
}

// ReadBpsLimit returns the read throttle in bytes/sec (0 = unlimited).
func (c *Cgroup) ReadBpsLimit() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readBps
}

// WriteBpsLimit returns the write throttle in bytes/sec (0 = unlimited).
func (c *Cgroup) WriteBpsLimit() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writeBps
}

// SetReadBpsLimit sets blkio.throttle.read_bps_device (0 disables).
func (c *Cgroup) SetReadBpsLimit(bps float64) {
	c.mu.Lock()
	if bps < 0 {
		bps = 0
	}
	c.readBps = bps
	subs := c.subs
	c.mu.Unlock()
	for _, s := range subs {
		s.Touch()
	}
}

// SetWriteBpsLimit sets blkio.throttle.write_bps_device (0 disables).
func (c *Cgroup) SetWriteBpsLimit(bps float64) {
	c.mu.Lock()
	if bps < 0 {
		bps = 0
	}
	c.writeBps = bps
	subs := c.subs
	c.mu.Unlock()
	for _, s := range subs {
		s.Touch()
	}
}

// Subscribe registers s to be told after any parameter change, once: a
// device subscribes at every flow it issues and the cgroup keeps the first,
// so weight updates reshape the in-flight shares of exactly the devices the
// cgroup ever had a flow on, in first-issue order.
//
//tango:hotpath
func (c *Cgroup) Subscribe(s Subscriber) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, have := range c.subs {
		if have == s {
			return
		}
	}
	if c.subs == nil {
		c.subs = make([]Subscriber, 0, 2) // a node's tiers: sized once, not grown per device
	}
	c.subs = append(c.subs, s)
}

// Account records served bytes (called by devices on flow completion).
func (c *Cgroup) Account(bytes float64, write bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if write {
		c.bytesWritten += bytes
	} else {
		c.bytesRead += bytes
	}
}

// BytesRead returns cumulative bytes read through this cgroup.
func (c *Cgroup) BytesRead() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytesRead
}

// BytesWritten returns cumulative bytes written through this cgroup.
func (c *Cgroup) BytesWritten() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytesWritten
}

// Controller is a registry of cgroups on a node, analogous to the blkio
// cgroup hierarchy root.
type Controller struct {
	mu     sync.Mutex
	groups map[string]*Cgroup  // guarded by mu
	slab   slab.Chunks[Cgroup] // guarded by mu; where Create's cgroups live
}

// NewController returns an empty cgroup registry.
func NewController() *Controller {
	return &Controller{groups: make(map[string]*Cgroup)}
}

// Create registers and returns a new cgroup. It fails if the name exists.
func (ctl *Controller) Create(name string) (*Cgroup, error) {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	if _, ok := ctl.groups[name]; ok {
		return nil, fmt.Errorf("blkio: cgroup %q already exists", name)
	}
	// A zero slot made what NewCgroup returns; weight is guarded by cg.mu.
	cg := ctl.slab.Next()
	cg.name = name
	cg.SetWeight(DefaultWeight)
	ctl.groups[name] = cg
	return cg, nil
}

// MustCreate is Create that panics on duplicates; used by scenario setup
// code where names are program constants.
func (ctl *Controller) MustCreate(name string) *Cgroup {
	cg, err := ctl.Create(name)
	if err != nil {
		panic(err)
	}
	return cg
}

// Lookup returns the named cgroup, or nil.
func (ctl *Controller) Lookup(name string) *Cgroup {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	return ctl.groups[name]
}

// Remove deletes the named cgroup from the registry.
func (ctl *Controller) Remove(name string) {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	delete(ctl.groups, name)
}
