// Package tango is a reproduction of "Tango: A Cross-layer Approach to
// Managing I/O Interference over Local Ephemeral Storage" (SC 2024).
//
// Tango coordinates two layers to keep data analytics fast on a node
// whose local ephemeral storage (an SSD performance tier plus an HDD
// capacity tier) is shared with other containers:
//
//   - Application layer: analysis data is refactored into a base
//     representation plus magnitude-ordered augmentations bucketed by
//     NRMSE/PSNR error bound (Decompose). At each analysis step a
//     DFT-based estimator predicts the available bandwidth and the
//     controller retrieves only as much augmentation as that supports,
//     never less than the prescribed bound.
//   - Storage layer: the container's blkio weight is adjusted per bucket
//     by a weight function of the bucket's cardinality, accuracy level,
//     and application priority.
//
// The storage substrate (devices, cgroups, containers, interference) is a
// deterministic discrete-event simulation, so experiments that take an
// hour of wall-clock in the paper replay in milliseconds. The top-level
// API mirrors the workflow:
//
//	h, _ := tango.Decompose(data, dims, tango.RefactorOptions{
//		Levels: 3, Bounds: []float64{0.1, 0.01},
//	})
//	node := tango.NewNode("node0")
//	ssd := node.MustAddDevice(tango.SSD("ssd"))
//	hdd := node.MustAddDevice(tango.HDD("hdd"))
//	tango.LaunchTableIVNoise(node, hdd, 6)
//	store, _ := tango.Stage(h, node.Tiers())
//	sess, _ := tango.NewSession("analytics", store, tango.SessionConfig{
//		Policy: tango.CrossLayer, ErrorControl: true, Bound: 0.01,
//		Priority: tango.PriorityHigh, Steps: 60,
//	})
//	sess.Launch(node)
//	node.Engine().Run(3600)
//	fmt.Println(sess.Summary(30).MeanIO)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package tango

import (
	"io"

	"tango/internal/analytics"
	"tango/internal/cache"
	"tango/internal/container"
	"tango/internal/coordinator"
	"tango/internal/core"
	"tango/internal/device"
	"tango/internal/errmetric"
	"tango/internal/fault"
	"tango/internal/fleet"
	"tango/internal/objstore"
	"tango/internal/refactor"
	"tango/internal/resil"
	"tango/internal/sim"
	"tango/internal/staging"
	"tango/internal/tensor"
	"tango/internal/tokenctl"
	"tango/internal/trace"
	"tango/internal/weightfn"
	"tango/internal/workload"
)

// ---- Error metrics -------------------------------------------------------

// Metric selects the error metric for error-bounded refactorization.
type Metric = errmetric.Kind

// Supported metrics (paper §III-B1).
const (
	NRMSE = errmetric.NRMSE
	PSNR  = errmetric.PSNR
)

// ---- Refactorization ------------------------------------------------------

// RefactorOptions configures Decompose. See refactor.Options.
type RefactorOptions = refactor.Options

// Hierarchy is a refactored dataset: base representation, augmentation
// streams, and the error-bound ladder.
type Hierarchy = refactor.Hierarchy

// Tensor is a dense N-dimensional float64 grid.
type Tensor = tensor.Tensor

// NewTensor allocates a zero tensor.
func NewTensor(dims ...int) *Tensor { return tensor.New(dims...) }

// TensorFromData wraps data (not copied) with the given dims.
func TensorFromData(data []float64, dims ...int) *Tensor {
	return tensor.FromData(data, dims...)
}

// Decompose refactors a row-major grid into an error-bounded hierarchy
// (paper §III-B). The decomposition is lossless at full augmentation.
func Decompose(data []float64, dims []int, o RefactorOptions) (*Hierarchy, error) {
	return refactor.Decompose(tensor.FromData(data, dims...), o)
}

// DecomposeTensor is Decompose over an existing tensor.
func DecomposeTensor(t *Tensor, o RefactorOptions) (*Hierarchy, error) {
	return refactor.Decompose(t, o)
}

// DecodeHierarchy reads a hierarchy serialized with Hierarchy.Encode.
func DecodeHierarchy(r io.Reader) (*Hierarchy, error) { return refactor.Decode(r) }

// LevelsForRatio converts a target decimation ratio (point-count
// reduction of the base representation) into a level count.
func LevelsForRatio(ratio float64, rank, d int) int {
	return refactor.LevelsForRatio(ratio, rank, d)
}

// ---- Storage substrate -----------------------------------------------------

// Node is a simulated compute node with local ephemeral storage tiers.
type Node = container.Node

// Proc is a simulated process: custom container bodies receive one and
// use its Sleep/Suspend methods to advance virtual time.
type Proc = sim.Proc

// Engine is the deterministic discrete-event scheduler driving a node.
type Engine = sim.Engine

// Container is an application container bound to a blkio cgroup.
type Container = container.Container

// Device is a simulated shared block device.
type Device = device.Device

// NewNode creates a node with its own deterministic simulation engine.
func NewNode(name string) *Node { return container.NewNode(name) }

// Device presets calibrated to the paper's testbed.
var (
	HDD  = device.HDD
	SSD  = device.SSD
	NVMe = device.NVMe
)

// MB is one mebibyte in bytes.
const MB = device.MB

// Noise is one periodic interfering container.
type Noise = workload.Noise

// TableIVNoise returns the paper's six interfering containers.
func TableIVNoise() []Noise { return workload.PaperNoiseSet() }

// LaunchTableIVNoise starts the first n Table IV interferers (n is
// clamped to 0–6) on node writing to dev, and returns their containers.
func LaunchTableIVNoise(node *Node, dev *Device, n int) []*Container {
	return workload.LaunchNoiseSet(node, dev, workload.FirstPaperNoise(n))
}

// LaunchNoise starts one custom interferer.
func LaunchNoise(node *Node, dev *Device, n Noise) *Container {
	return workload.LaunchNoise(node, dev, n)
}

// NoiseHandle controls a running interferer (stop, change period) — the
// lever the fault injector's churn events act on.
type NoiseHandle = workload.Handle

// LaunchTableIVNoiseControlled starts the first n Table IV interferers
// and returns their control handles by name, for use with
// FaultInjector.RegisterNoise.
func LaunchTableIVNoiseControlled(node *Node, dev *Device, n int) map[string]*NoiseHandle {
	return workload.LaunchNoiseSetControlled(node, dev, workload.FirstPaperNoise(n))
}

// ---- Fault injection --------------------------------------------------------

// FaultPlan is a virtual-time schedule of injectable faults: device
// degradations, cgroup faults, and workload churn (see internal/fault
// and docs/faults.md).
type FaultPlan = fault.Plan

// FaultEvent is one scheduled fault.
type FaultEvent = fault.Event

// FaultInjector arms a FaultPlan against a node.
type FaultInjector = fault.Injector

// ParseFaultPlan parses the textual plan spec used by `tangosim -faults`
// (grammar in docs/faults.md), e.g.
// "bw-collapse@900:dev=hdd,factor=0.2,dur=120; leave@2400:name=noise1".
func ParseFaultPlan(spec string) (*FaultPlan, error) { return fault.ParsePlan(spec) }

// FaultGenerateOptions parameterizes GenerateFaultPlan.
type FaultGenerateOptions = fault.GenerateOptions

// GenerateFaultPlan draws a seed-deterministic random plan.
func GenerateFaultPlan(seed int64, opts FaultGenerateOptions) (*FaultPlan, error) {
	return fault.Generate(seed, opts)
}

// NewFaultInjector binds a plan to a node, recording injections and
// clearances into rec (which may be nil).
func NewFaultInjector(node *Node, rec *TraceRecorder, plan *FaultPlan) *FaultInjector {
	return fault.NewInjector(node, rec, plan)
}

// UnpairedFaults returns injected faults with no recovery action (a
// recover or refit trace event) recorded at or after the injection.
func UnpairedFaults(events []TraceEvent) []TraceEvent { return fault.Unpaired(events) }

// ---- Staging ---------------------------------------------------------------

// Store is a hierarchy staged across storage tiers.
type Store = staging.Store

// Stage places h across tiers (fastest first) per the paper's Fig 3
// hierarchical placement, reserving capacity.
func Stage(h *Hierarchy, tiers []*Device) (*Store, error) { return staging.Stage(h, tiers) }

// StageScaled is Stage with a payload scale factor (bytes per point
// beyond one float64); see staging.StageScaled.
func StageScaled(h *Hierarchy, tiers []*Device, scale float64) (*Store, error) {
	return staging.StageScaled(h, tiers, scale)
}

// ---- Cross-layer controller --------------------------------------------------

// Policy selects which layers adapt.
type Policy = core.Policy

// The four policies of the paper's evaluation, plus the beyond-paper
// cross-layer variant with the predictive fast-tier cache.
const (
	NoAdapt            = core.NoAdapt
	StorageOnly        = core.StorageOnly
	AppOnly            = core.AppOnly
	CrossLayer         = core.CrossLayer
	CrossLayerPrefetch = core.CrossLayerPrefetch
)

// CacheConfig parameterizes the fast-tier augmentation cache and its
// idle-window prefetcher; pass one via SessionConfig.Cache (see
// internal/cache and docs/cache.md).
type CacheConfig = cache.Config

// SessionConfig parameterizes an analysis session (zero values take the
// paper's §IV-A defaults).
type SessionConfig = core.Config

// Session runs one data-analytics container under a policy.
type Session = core.Session

// Summary aggregates step records (mean/std I/O time, etc).
type Summary = core.Summary

// Application priorities (§IV-A).
const (
	PriorityLow    = weightfn.PriorityLow
	PriorityMedium = weightfn.PriorityMedium
	PriorityHigh   = weightfn.PriorityHigh
)

// NewSession validates cfg against the staged hierarchy and calibrates
// the weight function.
func NewSession(name string, store *Store, cfg SessionConfig) (*Session, error) {
	return core.NewSession(name, store, cfg)
}

// ---- Resilience control plane ------------------------------------------------

// ResilController is the resilience control plane: policy-keyed retries,
// retry budgets, circuit breakers, and forecast-driven hedged reads.
// Pass one via SessionConfig.Resil to route every I/O-issuing layer of
// the session through it (see internal/resil and docs/resil.md).
type ResilController = resil.Controller

// ResilOptions configures a ResilController.
type ResilOptions = resil.Options

// HedgeConfig controls forecast-driven hedged reads.
type HedgeConfig = resil.HedgeConfig

// NewResilController builds a controller on the node's engine, holding
// one key per entry of resil's fixed policy catalog.
func NewResilController(eng *Engine, opts ResilOptions) *ResilController {
	return resil.New(eng, opts)
}

// ---- Coordination -------------------------------------------------------------

// Allocator arbitrates blkio weights across the Tango sessions retrieving
// at once on one node, preserving priority ratios; pass it via
// SessionConfig.Allocator. It takes no lock: use it from that node's
// engine only.
type Allocator = coordinator.Allocator

// NewAllocator creates an empty weight allocator.
func NewAllocator() *Allocator { return coordinator.New() }

// TokenController is the decentralized token-bucket weight controller
// (internal/tokenctl): per-session buckets sized from the weight
// function's output, refilled on the sim clock, with bounded borrowing
// from idle peers. Pass one via SessionConfig.Tokens as the O(1)
// alternative to the central Allocator; see docs/tokens.md.
type TokenController = tokenctl.Controller

// TokenOptions tunes the bucket and borrow-ledger geometry; the zero
// value selects the defaults documented on each field.
type TokenOptions = tokenctl.Options

// ControlMode selects the weight-control mode: ModeCentral (coordinator
// rescale), ModeTokens (decentralized buckets), or ModeHybrid (tokens
// with a periodic coordinator-style resync). Fleet nodes take one via
// FleetConfig.Control.
type ControlMode = tokenctl.Mode

// The weight-control modes.
const (
	ModeCentral = tokenctl.ModeCentral
	ModeTokens  = tokenctl.ModeTokens
	ModeHybrid  = tokenctl.ModeHybrid
)

// NewTokenController creates a token controller reading the sim clock
// through now (typically node.Engine().Now).
func NewTokenController(now func() float64, opts TokenOptions) *TokenController {
	return tokenctl.New(now, opts)
}

// ---- Tracing ----------------------------------------------------------------

// TraceRecorder is a bounded ring buffer of controller events; pass one
// via SessionConfig.Trace to observe weight adjustments, bucket
// retrievals, and estimator refits. It takes no lock: give each engine
// (or each concurrent run) its own.
type TraceRecorder = trace.Recorder

// TraceEvent is one recorded controller event.
type TraceEvent = trace.Event

// NewTraceRecorder creates a recorder keeping the most recent max events
// (max <= 0 defaults to 4096).
func NewTraceRecorder(max int) *TraceRecorder { return trace.New(max) }

// ---- Applications -----------------------------------------------------------

// App bundles a synthetic data generator with its analysis outcome-error
// measure (XGC blob detection, GenASiS rendering, CFD pressure).
type App = analytics.App

// The paper's three applications.
var (
	XGCApp     = analytics.XGCApp
	GenASiSApp = analytics.GenASiSApp
	CFDApp     = analytics.CFDApp
	Apps       = analytics.Apps
)

// ---- Fleet ------------------------------------------------------------------

// FleetConfig sizes one multi-node cluster run over a shared object
// store (see internal/fleet and docs/fleet.md).
type FleetConfig = fleet.Config

// FleetReport is the outcome of one cluster run.
type FleetReport = fleet.Report

// Fleet is an N-node cluster of full single-node Tango stacks over a
// shared remote object-store capacity tier.
type Fleet = fleet.Cluster

// ObjstoreParams describes the shared object store backing a fleet.
type ObjstoreParams = objstore.Params

// NewFleet builds a cluster: the object store, the per-node stacks, and
// the seed-deterministic session population, placed by predicted
// interference.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }
