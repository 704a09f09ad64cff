// Package core implements Tango's cross-layer controller: the per-step
// loop of Algorithm 1 (interference estimation → augmentation degree →
// per-bucket blkio weight → tiered retrieval → recomposition), and the
// three comparison policies the paper evaluates against (no adaptivity,
// storage-layer only, application-layer only).
package core

import (
	"fmt"
	"math"

	"tango/internal/cache"
	"tango/internal/coordinator"
	"tango/internal/device"
	"tango/internal/resil"
	"tango/internal/tokenctl"
	"tango/internal/trace"
	"tango/internal/weightfn"
)

// Policy selects which layers adapt (paper Fig 8/9).
type Policy int

const (
	// NoAdapt retrieves the full augmentation at the default weight:
	// the conventional access pattern, no adaptivity at either layer.
	NoAdapt Policy = iota
	// StorageOnly retrieves the full augmentation but sets the blkio
	// weight proportionally to the retrieval size (single-layer,
	// storage adaptivity).
	StorageOnly
	// AppOnly performs dynamic augmentation from the interference
	// estimate but never adjusts the weight (single-layer, application
	// adaptivity; the approach of refs [3], [2]).
	AppOnly
	// CrossLayer is Tango: dynamic augmentation plus the weight
	// function at the storage layer.
	CrossLayer
	// CrossLayerPrefetch is CrossLayer plus the fast-tier cache and
	// idle-window prefetcher (internal/cache): forecast quiet windows
	// pre-stage upcoming augmentation HDD→SSD through a floor-weight
	// background flow, so high-interference steps read from the fast
	// tier instead.
	CrossLayerPrefetch
)

// String returns the policy name as used in the paper's figures.
func (p Policy) String() string {
	switch p {
	case NoAdapt:
		return "no-adaptivity"
	case StorageOnly:
		return "single-layer/storage"
	case AppOnly:
		return "single-layer/application"
	case CrossLayer:
		return "cross-layer"
	case CrossLayerPrefetch:
		return "cross-layer+prefetch"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// AllPolicies lists the four policies in the paper's presentation order.
func AllPolicies() []Policy {
	return []Policy{NoAdapt, StorageOnly, AppOnly, CrossLayer}
}

// ExtendedPolicies is AllPolicies plus the beyond-paper cross-layer
// variant with the predictive fast-tier cache.
func ExtendedPolicies() []Policy {
	return append(AllPolicies(), CrossLayerPrefetch)
}

// adaptive reports whether the policy sizes its retrieval from the
// interference forecast (the others always retrieve everything).
func (p Policy) adaptive() bool { return p == AppOnly || p.crossLayer() }

// adjustsWeights reports whether the policy writes blkio weights (and so
// must probe for default-share bandwidth samples).
func (p Policy) adjustsWeights() bool {
	return p == StorageOnly || p == CrossLayer || p == CrossLayerPrefetch
}

// crossLayer reports whether the policy plans its cursor against the
// bandwidth share its elevated weight will earn.
func (p Policy) crossLayer() bool {
	return p == CrossLayer || p == CrossLayerPrefetch
}

// The paper's fixed controller parameters (§IV-A); the augmentation-
// bandwidth plot is abplot.Default.
const (
	threshFrac = 0.5           // DFT amplitude threshold, as a fraction of the peak
	period     = 60            // analytics step period, seconds (start to start)
	probeBytes = 4 * device.MB // capacity-tier probe when a step read too little to measure
)

// Config parameterizes an analysis session. Zero values take the paper's
// defaults (§IV-A).
type Config struct {
	Policy Policy

	// Priority p of this data analytics (1 low, 5 medium, 10 high).
	Priority float64

	// ErrorControl enables the prescribed bound: the session never
	// retrieves less than the bound's rung, regardless of interference.
	ErrorControl bool
	// Bound is the prescribed error bound ε_i; it must be one of the
	// bounds the hierarchy was decomposed with.
	Bound float64

	// Window is the estimator window in steps (default 30).
	Window int
	// RefitEvery re-runs the estimation every this many steps
	// (default 30).
	RefitEvery int

	// Steps is the number of analysis steps to run (required).
	Steps int

	// Weight-function ablations (Fig 13).
	DisablePriorityTerm bool
	DisableAccuracyTerm bool

	// ParallelTierReads overlaps each bucket's per-tier transfers with
	// one concurrent reader per tier (an optimization beyond the paper's
	// sequential Algorithm 1 loop; see the ablation-parallel
	// experiment).
	ParallelTierReads bool

	// Trace, when non-nil, receives structured controller events
	// (steps, weight adjustments, estimator refits).
	Trace *trace.Recorder

	// Allocator, when non-nil, arbitrates this session's weight requests
	// against other sessions on the node, rescaling concurrent requests
	// so priority ratios are preserved (see internal/coordinator).
	Allocator *coordinator.Allocator

	// Tokens, when non-nil, selects decentralized token-bucket weight
	// control instead of the central Allocator: the session funds its
	// weight from a per-session bucket and borrows bounded shortfalls
	// from idle peers (see internal/tokenctl). Mutually exclusive with
	// Allocator.
	Tokens *tokenctl.Controller

	// Cache configures the fast-tier augmentation cache and its
	// prefetcher (see internal/cache). nil leaves caching off unless the
	// policy is CrossLayerPrefetch, which defaults it.
	Cache *cache.Config

	// Resil routes every I/O-issuing layer of this session — staging
	// guarded reads and probes, session and coordinator weight writes,
	// the prefetcher's heal loop and staging reads — through the
	// resilience control plane (see internal/resil): policy-keyed
	// retries, retry budgets, circuit breakers, and forecast-driven
	// hedged reads. nil runs them on the node's adhoc controller
	// (container.Node.Adhoc): unbudgeted fixed retries, no hedging.
	Resil *resil.Controller
}

func (c Config) withDefaults() Config {
	if c.Priority == 0 {
		c.Priority = weightfn.PriorityHigh
	}
	if c.Window == 0 {
		c.Window = 30
	}
	if c.RefitEvery == 0 {
		c.RefitEvery = 30
	}
	if c.Policy == CrossLayerPrefetch && c.Cache == nil {
		cc := cache.DefaultConfig()
		c.Cache = &cc
	}
	return c
}

func (c Config) validate() error {
	if c.Steps <= 0 {
		return fmt.Errorf("core: Steps must be > 0")
	}
	if c.Window < 0 || c.RefitEvery < 0 {
		return fmt.Errorf("core: Window %d and RefitEvery %d must not be negative", c.Window, c.RefitEvery)
	}
	if !(c.Priority > 0) || math.IsInf(c.Priority, 1) {
		return fmt.Errorf("core: Priority %v is not finite and > 0", c.Priority)
	}
	if c.Allocator != nil && c.Tokens != nil {
		return fmt.Errorf("core: Allocator and Tokens are mutually exclusive weight-control modes")
	}
	return nil
}
