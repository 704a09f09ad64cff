// Package container models the containerized, non-exclusive node usage
// scenario the paper targets: a compute node with a local ephemeral
// storage hierarchy (performance tier + capacity tier) shared by several
// containers, each bound to its own blkio cgroup (§II "Runtime resource
// control via cgroups").
package container

import (
	"fmt"

	"tango/internal/blkio"
	"tango/internal/device"
	"tango/internal/resil"
	"tango/internal/sim"
	"tango/internal/trace"
)

// Node is one compute node: an engine, a set of local devices forming the
// ephemeral storage hierarchy, and the containers running on it.
type Node struct {
	name string
	eng  *sim.Engine
	ctl  *blkio.Controller

	devices    map[string]*device.Device
	tiers      []*device.Device // fastest first (ST^{L-1} … ST^0)
	containers map[string]*Container
	adhoc      *resil.Controller // made by the first Adhoc call
}

// NewNode creates an empty node with its own simulation engine.
func NewNode(name string) *Node {
	return &Node{
		name:       name,
		eng:        sim.NewEngine(),
		ctl:        blkio.NewController(),
		devices:    make(map[string]*device.Device),
		containers: make(map[string]*Container),
	}
}

// Engine returns the node's simulation engine.
func (n *Node) Engine() *sim.Engine { return n.eng }

// Adhoc returns the node's adhoc resilience controller (resil.NewAdhoc),
// the recovery of every session on the node given no controller of its
// own; the first call makes it, tracing to rec.
func (n *Node) Adhoc(rec *trace.Recorder) *resil.Controller {
	if n.adhoc == nil {
		n.adhoc = resil.NewAdhoc(n.eng, rec)
	}
	return n.adhoc
}

// Cgroups returns the node's blkio controller.
func (n *Node) Cgroups() *blkio.Controller { return n.ctl }

// AddDevice creates a device on this node. Devices added in order of
// decreasing speed become the storage tiers: the first added is the
// fastest tier. Returns an error on duplicate names.
func (n *Node) AddDevice(p device.Params) (*device.Device, error) {
	if _, ok := n.devices[p.Name]; ok {
		return nil, fmt.Errorf("container: device %q already exists on node %q", p.Name, n.name)
	}
	d := device.New(n.eng, p)
	n.devices[p.Name] = d
	n.tiers = append(n.tiers, d)
	return d, nil
}

// MustAddDevice is AddDevice that panics on error.
func (n *Node) MustAddDevice(p device.Params) *device.Device {
	d, err := n.AddDevice(p)
	if err != nil {
		panic(err)
	}
	return d
}

// Device returns the named device or nil.
func (n *Node) Device(name string) *device.Device { return n.devices[name] }

// Tiers returns the storage tiers fastest-first, matching the paper's
// indexing where ST^{L-1} is the fastest/smallest and ST^0 the
// slowest/largest. Tiers[0] here is the fastest.
func (n *Node) Tiers() []*device.Device { return n.tiers }

// Container is one application container: a name and its blkio cgroup.
// It holds no pointer back to its node, so the node is in no cycle and a
// finalizer on it can run.
type Container struct {
	name string
	cg   *blkio.Cgroup
}

// Create registers a container with a fresh cgroup and no process: the
// caller drives its I/O from engine events (the Table IV interferers).
func (n *Node) Create(name string) (*Container, error) {
	if _, ok := n.containers[name]; ok {
		return nil, fmt.Errorf("container: %q already running on node %q", name, n.name)
	}
	cg, err := n.ctl.Create(name)
	if err != nil {
		return nil, err
	}
	return n.add(name, cg), nil
}

// MustCreate is Create that panics where Create fails. It builds no error
// value, so an engine callback may call it (see blkio's MustCreate).
func (n *Node) MustCreate(name string) *Container {
	if _, ok := n.containers[name]; ok {
		panic(fmt.Sprintf("container: %q already running on node %q", name, n.name))
	}
	return n.add(name, n.ctl.MustCreate(name))
}

func (n *Node) add(name string, cg *blkio.Cgroup) *Container {
	c := &Container{name: name, cg: cg}
	n.containers[name] = c
	return c
}

// Launch is Create, then body spawned as the container's process.
func (n *Node) Launch(name string, body func(c *Container, p *sim.Proc)) (*Container, error) {
	c, err := n.Create(name)
	if err == nil {
		n.eng.Spawn(name, func(p *sim.Proc) { body(c, p) })
	}
	return c, err
}

// MustLaunch is Launch that panics on error.
func (n *Node) MustLaunch(name string, body func(c *Container, p *sim.Proc)) *Container {
	c, err := n.Launch(name, body)
	if err != nil {
		panic(err)
	}
	return c
}

// Container returns the named container or nil.
func (n *Node) Container(name string) *Container { return n.containers[name] }

// Name returns the container name.
func (c *Container) Name() string { return c.name }

// Cgroup returns the container's blkio cgroup.
func (c *Container) Cgroup() *blkio.Cgroup { return c.cg }

// SetWeight adjusts the container's blkio weight at runtime.
func (c *Container) SetWeight(w int) { c.cg.SetWeight(w) }
