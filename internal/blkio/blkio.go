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
	"math"

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
//
// A Cgroup has no lock: like the rest of a node's state it is touched only
// from its engine's goroutine, or from a fleet barrier while that engine
// is idle (package sim: all simulation state is serialized).
type Cgroup struct {
	name string // immutable after construction

	weight     int
	readBps    float64 // 0 = unlimited
	writeBps   float64 // 0 = unlimited
	weightFail bool    // injected fault: weight writes error

	// Subscribers in first-subscription order: a node's two tiers inline,
	// any more in spill.
	subs  [2]Subscriber
	spill []Subscriber

	// accounting
	bytesRead    float64
	bytesWritten float64
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
func (c *Cgroup) Weight() int { return c.weight }

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
	if c.weightFail {
		return weightWriteError{c}
	}
	c.weight = ClampWeight(w)
	c.touch()
	return nil
}

// SetWeightFailing toggles the injected weight-write fault (see
// internal/fault). While failing, TrySetWeight errors and SetWeight is a
// silent no-op; reads and throttle writes are unaffected.
func (c *Cgroup) SetWeightFailing(fail bool) { c.weightFail = fail }

// WeightFailing reports whether weight writes are currently failing.
func (c *Cgroup) WeightFailing() bool { return c.weightFail }

// ReadBpsLimit returns the read throttle in bytes/sec (0 = unlimited).
func (c *Cgroup) ReadBpsLimit() float64 { return c.readBps }

// WriteBpsLimit returns the write throttle in bytes/sec (0 = unlimited).
func (c *Cgroup) WriteBpsLimit() float64 { return c.writeBps }

// SetReadBpsLimit sets blkio.throttle.read_bps_device (0 or less disables).
// A NaN or +Inf rate panics: a device would read either as "unlimited".
func (c *Cgroup) SetReadBpsLimit(bps float64) {
	c.readBps = c.throttle(bps)
	c.touch()
}

// SetWriteBpsLimit sets blkio.throttle.write_bps_device, like
// SetReadBpsLimit.
func (c *Cgroup) SetWriteBpsLimit(bps float64) {
	c.writeBps = c.throttle(bps)
	c.touch()
}

// throttle checks and clamps a byte-rate limit for the setters.
func (c *Cgroup) throttle(bps float64) float64 {
	if math.IsNaN(bps) || math.IsInf(bps, 1) {
		panic(fmt.Sprintf("blkio: cgroup %q: throttle %v bytes/s is not a finite rate", c.name, bps))
	}
	return max(bps, 0)
}

// touch tells every subscriber, in first-subscription order.
func (c *Cgroup) touch() {
	for _, s := range c.subs {
		if s == nil {
			return
		}
		s.Touch()
	}
	for _, s := range c.spill {
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
	for i, have := range c.subs {
		switch have {
		case s:
			return
		case nil:
			c.subs[i] = s
			return
		}
	}
	for _, have := range c.spill {
		if have == s {
			return
		}
	}
	c.spill = append(c.spill, s)
}

// Account records served bytes (called by devices on flow completion).
func (c *Cgroup) Account(bytes float64, write bool) {
	if write {
		c.bytesWritten += bytes
	} else {
		c.bytesRead += bytes
	}
}

// BytesRead returns cumulative bytes read through this cgroup.
func (c *Cgroup) BytesRead() float64 { return c.bytesRead }

// BytesWritten returns cumulative bytes written through this cgroup.
func (c *Cgroup) BytesWritten() float64 { return c.bytesWritten }

// Controller is a registry of cgroups on a node, analogous to the blkio
// cgroup hierarchy root. Like a Cgroup it has no lock: it is touched only
// from its engine's goroutine, or from a fleet barrier while that engine
// is idle.
type Controller struct {
	groups map[string]*Cgroup
	slab   slab.Chunks[Cgroup] // where Create's cgroups live
}

// NewController returns an empty cgroup registry.
func NewController() *Controller {
	return &Controller{groups: make(map[string]*Cgroup)}
}

// Create registers and returns a new cgroup. It fails if the name exists.
func (ctl *Controller) Create(name string) (*Cgroup, error) {
	if _, ok := ctl.groups[name]; ok {
		return nil, fmt.Errorf("blkio: cgroup %q already exists", name)
	}
	// A zero slot made what NewCgroup returns.
	cg := ctl.slab.Next()
	cg.name, cg.weight = name, DefaultWeight
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
func (ctl *Controller) Lookup(name string) *Cgroup { return ctl.groups[name] }

// Remove deletes the named cgroup from the registry.
func (ctl *Controller) Remove(name string) { delete(ctl.groups, name) }
