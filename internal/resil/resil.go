// Package resil is the resilience control plane for the simulated Tango
// storage stack. Every I/O-issuing layer — staging guarded reads, blkio
// and coordinator weight writes, the cache prefetcher's heal loop —
// routes its fault handling through this package instead of carrying its
// own ad-hoc retry loop.
//
// The design (PAIO-style: a policy layer between stages and storage,
// without touching either side's internals):
//
//   - Stable policy keys per call site ("staging.read.capacity",
//     "blkio.weight.apply", "prefetch.stage", …) map to declarative
//     policies: max attempts, backoff curve, per-attempt timeout in
//     virtual time, and an outcome classifier. Keys are part of the
//     operator contract (runbooks filter traces by key), so the
//     catalog's names are golden-tested.
//   - Protocol-aware classifiers distinguish retryable faults (a stuck
//     or bandwidth-collapsed device surfaces as a cancelled-by-timeout
//     read, a media error as device.ErrRead, a throttle/weight fault as
//     blkio.ErrWeightWrite) from terminal outcomes.
//   - A global retry budget — a token bucket per policy key plus a
//     node-wide cap — bounds retry amplification: a degraded device
//     cannot trigger a retry storm. Over-budget bounded work degrades
//     gracefully; over-budget mandatory work is paced to the refill
//     rate instead of hammering.
//   - Circuit breakers per device/cgroup target trip after consecutive
//     failures and half-open on the sim clock, so optional work fails
//     fast and weight writes stop hammering a wedged cgroup file.
//   - Hedged reads race the fast tier against the capacity tier when
//     the DFT forecast predicts a contended window, cancelling the
//     loser (device.Token) and charging the extra leg to the budget.
//
// Everything runs in virtual time on the sim engine and is fully
// deterministic; per-attempt decisions are emitted through
// internal/trace (KindAttempt/KindBreaker/KindHedge/KindBudget) so
// every recovery is explainable from the timeline. See docs/resil.md.
package resil

import (
	"errors"

	"tango/internal/blkio"
	"tango/internal/device"
	"tango/internal/sim"
	"tango/internal/trace"
)

// Class is a classified attempt outcome.
type Class int

const (
	// ClassOK — the attempt succeeded.
	ClassOK Class = iota
	// ClassRetryable — a transient fault worth retrying under policy.
	ClassRetryable
	// ClassTerminal — retrying cannot help; fail the operation now.
	ClassTerminal
)

// Classifier maps an attempt error to a Class. Classifiers are plain
// func values so the zero-alloc attempt path can invoke them without
// interface dispatch.
type Classifier func(err error) Class

// ClassifyRead classifies read-path outcomes: transient media errors
// (device.ErrRead) and timeout cancellations (device.ErrCanceled — how
// a stuck or bandwidth-collapsed device surfaces to a deadlined read)
// are retryable; anything else is terminal.
func ClassifyRead(err error) Class {
	switch {
	case err == nil:
		return ClassOK
	case errors.Is(err, device.ErrRead), errors.Is(err, device.ErrCanceled):
		return ClassRetryable
	default:
		return ClassTerminal
	}
}

// ClassifyWeight classifies cgroup weight/limit writes: a faulted
// controller file (blkio.ErrWeightWrite — also the signature of a
// throttle-reset window) is retryable on the next control tick.
func ClassifyWeight(err error) Class {
	switch {
	case err == nil:
		return ClassOK
	case errors.Is(err, blkio.ErrWeightWrite):
		return ClassRetryable
	default:
		return ClassTerminal
	}
}

// KeyID names one call site's policy: an index into the catalog.
type KeyID int

// Stable policy keys, one per call site, in catalog order. Their names
// are part of the operator contract (runbooks and trace filters select on
// them); keys_test.go pins the names and the order.
const (
	KeyStagingReadBase     KeyID = iota // staging.read.base: whole-range base read (mandatory, unbounded)
	KeyStagingReadCapacity              // staging.read.capacity: mandatory capacity-tier range read (unbounded)
	KeyStagingReadOptional              // staging.read.optional: above-bound augmentation read (bounded, degradable)
	KeyStagingReadHedge                 // staging.read.hedge: cache-resident prefix, fast-vs-capacity hedge race
	KeyStagingProbe                     // staging.probe.capacity: background bandwidth probe on the slow tier
	KeyWeightApply                      // blkio.weight.apply: session weight writes to the analytics cgroup
	KeyCoordWeightApply                 // coord.weight.apply: coordinator grant/revert weight writes
	KeyPrefetchWeightFloor              // prefetch.weight.floor: prefetcher re-asserting its low-priority floor
	KeyPrefetchStage                    // prefetch.stage: background staging read into the fast tier
	KeyFleetReadObjstore                // fleet.read.objstore: mandatory L3 object-store miss read (unbounded)
	KeyTokenWeightApply                 // tokens.weight.apply: token-controller grant/revert/recall weight writes
	numKeys
)

// Policy is the declarative resilience contract for one key.
type Policy struct {
	Name        string  // the key's stable name, as traces print it
	MaxAttempts int     // per operation; 0 = unbounded (mandatory work never gives up)
	Backoff     float64 // seconds before the first retry
	Factor      float64 // backoff multiplier per retry (>= 1)
	MaxBackoff  float64 // backoff ceiling in seconds

	// Per-attempt timeout in virtual time, expressed as a minimum
	// acceptable effective bandwidth: an attempt moving `bytes` is
	// cancelled after TimeoutFloor + bytes/TimeoutMinBW seconds — i.e.
	// "declare the attempt stuck if it is slower than TimeoutMinBW".
	// TimeoutMinBW == 0 disables the timeout (the attempt may block
	// until the fault clears, preserving flow progress).
	TimeoutFloor float64 // seconds of slack on top of the bandwidth bound
	TimeoutMinBW float64 // bytes/sec; 0 = no per-attempt timeout

	Classify Classifier

	// Retry budget: a token bucket per key. Each retry (and each hedge
	// leg) consumes one token from this bucket and from the node-wide
	// bucket. BudgetCap == 0 means the key draws only on the node cap.
	BudgetCap    float64 // tokens
	BudgetRefill float64 // tokens per virtual second

	// Circuit breaker per target (device or cgroup name). Threshold 0
	// disables the breaker for this key (mandatory work must never be
	// denied). The first key to make a target's breaker fixes its
	// parameters; the catalog keeps them uniform per target class.
	BreakerThreshold int     // consecutive failures before opening
	BreakerCooldown  float64 // seconds open before a half-open probe

	// ChargeRequest reports a read as the bytes requested over the
	// operation's wall-clock span, whatever its attempts moved: the
	// accounting of the adhoc catalog's retry loop, a failed optional
	// read included (a recorded defect, kept for byte identity).
	ChargeRequest bool
}

// catalog is the policy table, one row per KeyID. Mandatory read keys are
// unbounded with no timeout (blocking on a stalled-but-progressing flow
// preserves its progress; cancelling would discard it), optional and
// augmentation keys time out at a minimum-useful bandwidth and degrade,
// and weight keys are single-attempt with a short-cooldown breaker (the
// next control tick is the retry).
var catalog = [numKeys]Policy{
	KeyStagingReadBase: {Name: "staging.read.base", MaxAttempts: 0, Backoff: 0.05, Factor: 2, MaxBackoff: 5,
		Classify: ClassifyRead, BudgetCap: 32, BudgetRefill: 0.5},
	KeyStagingReadCapacity: {Name: "staging.read.capacity", MaxAttempts: 0, Backoff: 0.05, Factor: 2, MaxBackoff: 5,
		Classify: ClassifyRead, BudgetCap: 32, BudgetRefill: 0.5},
	KeyStagingReadOptional: {Name: "staging.read.optional", MaxAttempts: 3, Backoff: 0.05, Factor: 2, MaxBackoff: 5,
		TimeoutFloor: 10, TimeoutMinBW: 4 * device.MB,
		Classify: ClassifyRead, BudgetCap: 16, BudgetRefill: 0.25,
		BreakerThreshold: 4, BreakerCooldown: 20},
	KeyStagingReadHedge: {Name: "staging.read.hedge", MaxAttempts: 1, Backoff: 0.05, Factor: 2, MaxBackoff: 5,
		TimeoutFloor: 5, TimeoutMinBW: 2 * device.MB,
		Classify: ClassifyRead, BudgetCap: 16, BudgetRefill: 0.25},
	KeyStagingProbe: {Name: "staging.probe.capacity", MaxAttempts: 1, Backoff: 0.05, Factor: 2, MaxBackoff: 5,
		TimeoutFloor: 5, TimeoutMinBW: 1 * device.MB,
		Classify: ClassifyRead, BudgetCap: 8, BudgetRefill: 0.1,
		BreakerThreshold: 4, BreakerCooldown: 20},
	KeyWeightApply: {Name: "blkio.weight.apply", MaxAttempts: 1, Factor: 2,
		Classify: ClassifyWeight, BreakerThreshold: 3, BreakerCooldown: 5},
	KeyCoordWeightApply: {Name: "coord.weight.apply", MaxAttempts: 1, Factor: 2,
		Classify: ClassifyWeight, BreakerThreshold: 3, BreakerCooldown: 5},
	KeyPrefetchWeightFloor: {Name: "prefetch.weight.floor", MaxAttempts: 1, Factor: 2,
		Classify: ClassifyWeight, BreakerThreshold: 3, BreakerCooldown: 5},
	KeyPrefetchStage: {Name: "prefetch.stage", MaxAttempts: 2, Backoff: 0.1, Factor: 2, MaxBackoff: 5,
		TimeoutFloor: 5, TimeoutMinBW: 2 * device.MB,
		Classify: ClassifyRead, BudgetCap: 8, BudgetRefill: 0.1,
		BreakerThreshold: 4, BreakerCooldown: 20},
	KeyFleetReadObjstore: {Name: "fleet.read.objstore", MaxAttempts: 0, Backoff: 0.05, Factor: 2, MaxBackoff: 5,
		Classify: ClassifyRead, BudgetCap: 32, BudgetRefill: 0.5},
	KeyTokenWeightApply: {Name: "tokens.weight.apply", MaxAttempts: 1, Factor: 2,
		Classify: ClassifyWeight, BreakerThreshold: 3, BreakerCooldown: 5},
}

// adhoc is the catalog of a controller made by NewAdhoc, the recovery of a
// session given no controller: mandatory reads retry without bound and
// optional ones four times, backing off 0.05 s doubling to 5 s, with no
// deadline, budget or breaker, and weight writes make one traced attempt.
// A row with no name is direct: its Key is nil, so a read is one plain
// read and a weight one plain write.
var adhoc = [numKeys]Policy{
	KeyStagingReadBase: {Name: "adhoc.staging.read.base", Backoff: 0.05, Factor: 2, MaxBackoff: 5,
		Classify: ClassifyRead, ChargeRequest: true},
	KeyStagingReadCapacity: {Name: "adhoc.staging.read.capacity", Backoff: 0.05, Factor: 2, MaxBackoff: 5,
		Classify: ClassifyRead, ChargeRequest: true},
	KeyStagingReadOptional: {Name: "adhoc.staging.read.optional", MaxAttempts: 4, Backoff: 0.05, Factor: 2, MaxBackoff: 5,
		Classify: ClassifyRead, ChargeRequest: true},
	KeyWeightApply:         {Name: "adhoc.blkio.weight.apply", MaxAttempts: 1, Factor: 2, Classify: ClassifyWeight},
	KeyCoordWeightApply:    {Name: "adhoc.coord.weight.apply", MaxAttempts: 1, Factor: 2, Classify: ClassifyWeight},
	KeyPrefetchWeightFloor: {Name: "adhoc.prefetch.weight.floor", MaxAttempts: 1, Factor: 2, Classify: ClassifyWeight},
	KeyTokenWeightApply:    {Name: "adhoc.tokens.weight.apply", MaxAttempts: 1, Factor: 2, Classify: ClassifyWeight},
}

// HedgeConfig controls forecast-driven hedged reads.
type HedgeConfig struct {
	Enabled bool
}

const (
	// The hedging decision rule's thresholds (shouldHedge): a forecast
	// below hedgeContentionFrac of the model peak is a contended window
	// where tail insurance is worth the extra I/O, and a read under
	// hedgeMinBytes cannot win back its own request latency.
	hedgeContentionFrac = 0.5
	hedgeMinBytes       = 4 * 1024 * 1024

	// Node-wide retry budget shared by all keys: tokens, and tokens/s.
	nodeBudget = 64.0
	nodeRefill = 0.5
)

// KeyStats counts per-key control-plane decisions.
type KeyStats struct {
	Ops           int     // operations routed through the key
	Attempts      int     // individual attempts issued
	Retries       int     // attempts beyond the first
	Timeouts      int     // attempts cancelled by the per-attempt deadline
	Failures      int     // operations that ended terminally failed
	Degraded      int     // bounded operations that gave up under policy
	BudgetDenied  int     // retries/hedges denied by the budget
	BudgetPaced   int     // mandatory retries slowed to the refill rate
	BreakerDenied int     // attempts denied by an open breaker
	Hedges        int     // hedge races launched
	HedgeFastWins int     // races won by the fast tier
	HedgeSlowWins int     // races won by the capacity tier
	WastedBytes   float64 // bytes moved by cancelled attempts and hedge losers
}

// Totals aggregates stats across every key.
type Totals struct {
	Ops, Attempts, Retries, Timeouts, Degraded int
	BudgetDenied, BreakerDenied, BreakerOpens  int
	Hedges, HedgeFastWins, HedgeSlowWins       int
	WastedBytes                                float64
}

// Amplification returns attempts per operation (1 = no retries). With no
// operations it reports 1.
func (t Totals) Amplification() float64 {
	if t.Ops == 0 {
		return 1
	}
	return float64(t.Attempts) / float64(t.Ops)
}

// Key is one policy's state in its controller: its catalog row, its retry
// budget and its counters. Call sites ask for it by KeyID where they read
// or write (Controller.Key, an array index). A nil *Key — the key of a nil
// controller or of a direct row — is the direct path: its Weight is one
// plain write and its ReadOp one plain read.
type Key struct {
	c      *Controller
	pol    *Policy
	bucket bucket
	stats  KeyStats

	br       *Breaker // of brTarget, the last target guarded: saves a map lookup per operation
	brTarget string
}

// setPolicy puts pol on k with a full retry budget.
func (k *Key) setPolicy(pol *Policy) {
	k.pol = pol
	k.bucket = bucket{cap: pol.BudgetCap, refill: pol.BudgetRefill, tokens: pol.BudgetCap}
}

// Options configures a Controller.
type Options struct {
	Trace *trace.Recorder // per-attempt timeline sink (nil = silent)
	Hedge HedgeConfig
}

// source labels the controller's trace events.
const source = "resil"

// Controller owns the policy table, budgets, breakers, and hedging state
// for one node. Like the rest of the stack it is engine-serialized: one
// controller per sim engine, no locking.
type Controller struct {
	eng *sim.Engine
	rec *trace.Recorder

	keys [numKeys]Key // indexed by KeyID
	node bucket       // node-wide retry budget

	breakers map[string]*Breaker // by target (device or cgroup name); made with the first breaker
	brOpens  int

	hedge    HedgeConfig
	forecast func() (next, peak float64, ok bool)

	tokFree []*device.Token // Read's pooled attempt tokens
}

// New creates a controller bound to an engine, with every key of the
// catalog. It is one allocation: the keys live in the controller.
func New(eng *sim.Engine, opts Options) *Controller {
	c := newController(eng, opts.Trace, &catalog)
	c.hedge, c.node = opts.Hedge, bucket{cap: nodeBudget, refill: nodeRefill, tokens: nodeBudget}
	return c
}

// NewAdhoc creates a controller over the adhoc catalog, with no node-wide
// retry budget and no hedging: the recovery a session given no controller
// runs on. Like New it is one allocation.
func NewAdhoc(eng *sim.Engine, rec *trace.Recorder) *Controller {
	return newController(eng, rec, &adhoc)
}

// newController puts each named row of table on its key with a full retry
// budget; an unnamed row's key stays direct.
func newController(eng *sim.Engine, rec *trace.Recorder, table *[numKeys]Policy) *Controller {
	c := &Controller{eng: eng, rec: rec}
	for id := range c.keys {
		if table[id].Name != "" {
			c.keys[id].c = c
			c.keys[id].setPolicy(&table[id])
		}
	}
	return c
}

// Key returns the controller's key id, or nil on a nil controller or for
// a direct row.
func (c *Controller) Key(id KeyID) *Key {
	if c == nil || c.keys[id].pol == nil {
		return nil
	}
	return &c.keys[id]
}

// Totals aggregates counters across all keys.
func (c *Controller) Totals() Totals {
	var t Totals
	for i := range c.keys {
		s := c.keys[i].stats
		t.Ops += s.Ops
		t.Attempts += s.Attempts
		t.Retries += s.Retries
		t.Timeouts += s.Timeouts
		t.Degraded += s.Degraded
		t.BudgetDenied += s.BudgetDenied
		t.BreakerDenied += s.BreakerDenied
		t.Hedges += s.Hedges
		t.HedgeFastWins += s.HedgeFastWins
		t.HedgeSlowWins += s.HedgeSlowWins
		t.WastedBytes += s.WastedBytes
	}
	t.BreakerOpens = c.brOpens
	return t
}

// SetForecast wires the contention forecast consulted by the hedging
// decision: fn returns the next-window demand estimate, the model peak,
// and whether the estimator is ready. The session wires this to the
// dftestim-backed predictor it already maintains for the prefetcher.
func (c *Controller) SetForecast(fn func() (next, peak float64, ok bool)) {
	c.forecast = fn
}

// breaker returns the breaker guarding target for this key. Where there is
// none yet, create makes one with the key's parameters; without it the
// answer is nil, which reads as closed with no failures — all a breaker
// that never saw one has to say — and is not cached in k.br: the next
// failure makes the breaker and the key must then find it. Keys with
// BreakerThreshold 0 get no breaker (nil).
func (k *Key) breaker(target string, create bool) *Breaker {
	if k.pol.BreakerThreshold <= 0 {
		return nil
	}
	if k.br == nil || k.brTarget != target {
		b := k.c.breakers[target]
		if b == nil {
			if !create {
				return nil
			}
			if k.c.breakers == nil {
				k.c.breakers = make(map[string]*Breaker)
			}
			b = &Breaker{threshold: k.pol.BreakerThreshold, cooldown: k.pol.BreakerCooldown}
			k.c.breakers[target] = b
		}
		k.br, k.brTarget = b, target
	}
	return k.br
}
