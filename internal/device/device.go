// Package device models local block devices (HDD, SSD, NVMe) shared by
// multiple cgroups, using a fluid-flow approximation of the kernel block
// layer: at any instant, the set of active flows divides the device's
// effective bandwidth proportionally to their cgroups' blkio weights,
// subject to per-cgroup byte-rate throttles (water-filling redistribution
// of excess).
//
// The model captures the three storage phenomena the Tango paper builds
// on:
//
//  1. Proportional sharing by weight without isolation: equal static
//     weights yield shrinking shares as competitors join (Fig 1).
//  2. Total-throughput collapse on rotational media under concurrent
//     streams (seek thrash): with n concurrent flows, the device delivers
//     peak × eff(n) where eff(n) = max(minEff, 1/(1+thrash·(n−1))). This
//     is why storage-layer weight adjustment alone merely redistributes a
//     shrinking pie once the device saturates (Fig 8 discussion), whereas
//     application-layer adaptivity that removes load genuinely helps.
//  3. Per-request latency (seek/setup cost) paid before streaming.
//
// Flows run inside the sim engine; a Read/Write call blocks the calling
// simulated process until the flow drains, and Begin starts one for an
// engine callback.
package device

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"tango/internal/blkio"
	"tango/internal/sim"
	"tango/internal/slab"
)

// ErrRead is returned by a fallible read while a transient read-error
// fault is injected on the device (media error, controller reset — the
// request is issued, pays its latency, and fails without transferring
// data).
var ErrRead = errors.New("device: transient read error")

// ErrCanceled is returned when a transfer's Token is cancelled
// mid-flight (a per-attempt timeout fired, or a hedged read's
// other leg won). The bytes actually moved before the cancel are
// accounted to the cgroup and reported by Token.Moved.
var ErrCanceled = errors.New("device: transfer canceled")

// devError is a device's ErrRead or ErrCanceled under the text
// fmt.Errorf("device %q: %w") gives it, spelled once at New, so Error()
// builds nothing.
type devError struct {
	msg string
	err error
}

func (e *devError) Error() string { return e.msg }
func (e *devError) Unwrap() error { return e.err }

// Scheduler selects how concurrent flows share the device.
type Scheduler int

const (
	// ProportionalShare divides bandwidth by cgroup weight (CFQ/BFQ
	// semantics — the substrate Tango builds on). Default.
	ProportionalShare Scheduler = iota
	// FIFO serves one flow at a time in arrival order, ignoring weights
	// — an ablation showing why cgroup proportional share matters: any
	// long checkpoint write head-of-line-blocks the analytics.
	FIFO
)

// String names the scheduler.
func (s Scheduler) String() string {
	if names := [...]string{"proportional-share", "fifo"}; s >= 0 && int(s) < len(names) {
		return names[s]
	}
	return "Scheduler(?)"
}

// Params describes the performance envelope of a device.
type Params struct {
	Name           string
	PeakBandwidth  float64 // bytes/sec of a single sequential READ stream
	RequestLatency float64 // seconds of fixed cost per request (seek/setup)
	SeekThrash     float64 // efficiency loss coefficient per extra concurrent flow
	MinEfficiency  float64 // floor on eff(n), in (0, 1]
	Capacity       float64 // bytes of usable capacity (0 = unlimited)
	Scheduler      Scheduler
	// WriteFactor scales the service rate of write flows relative to
	// reads (e.g. 0.9 = writes stream 10% slower, typical for drives
	// with write verification or SSDs with program latency). 0 means 1.
	WriteFactor float64
}

// Presets loosely calibrated to the paper's testbed (§IV-A): a Seagate
// 7200 RPM SAS HDD and an Intel SATA SSD, with the HDD operating range
// matching the paper's BW_low=30 MB/s … BW_high=120 MB/s augmentation-
// bandwidth plot.
const MB = 1024 * 1024

// HDD returns parameters for a 7200 RPM hard disk: ~160 MB/s sequential,
// heavy seek thrash under concurrency, ~8 ms per request.
func HDD(name string) Params {
	return Params{
		Name:           name,
		PeakBandwidth:  160 * MB,
		RequestLatency: 0.008,
		SeekThrash:     0.35,
		MinEfficiency:  0.18,
		Capacity:       2048 * 1024 * MB, // 2 TB
	}
}

// SSD returns parameters for a SATA SSD: ~500 MB/s, negligible seek
// penalty, ~0.1 ms per request.
func SSD(name string) Params {
	return Params{
		Name:           name,
		PeakBandwidth:  500 * MB,
		RequestLatency: 0.0001,
		SeekThrash:     0.02,
		MinEfficiency:  0.70,
		Capacity:       400 * 1024 * MB, // 400 GB
	}
}

// NVMe returns parameters for an NVMe drive: ~3 GB/s, effectively no
// contention collapse at these flow counts.
func NVMe(name string) Params {
	return Params{
		Name:           name,
		PeakBandwidth:  3000 * MB,
		RequestLatency: 0.00002,
		SeekThrash:     0.005,
		MinEfficiency:  0.85,
		Capacity:       100 * 1024 * MB,
	}
}

func (p Params) validate() error {
	if p.PeakBandwidth <= 0 {
		return fmt.Errorf("device %q: PeakBandwidth must be > 0", p.Name)
	}
	if p.MinEfficiency <= 0 || p.MinEfficiency > 1 {
		return fmt.Errorf("device %q: MinEfficiency must be in (0,1]", p.Name)
	}
	if p.SeekThrash < 0 {
		return fmt.Errorf("device %q: SeekThrash must be >= 0", p.Name)
	}
	if p.RequestLatency < 0 {
		return fmt.Errorf("device %q: RequestLatency must be >= 0", p.Name)
	}
	if p.WriteFactor < 0 || p.WriteFactor > 1 {
		return fmt.Errorf("device %q: WriteFactor must be in [0,1] (0 = unset)", p.Name)
	}
	return nil
}

// flow is one in-flight request stream. Structs come from the device's
// slab and are recycled onto its free chain by finish, once the flow has
// ended and the device holds no reference to it. A fleet holds ~100 k, 80
// bytes each: new per-transfer state goes on Token instead.
type flow struct {
	d        *Device // owning device, for the Fire callback
	next     *flow   // the device's chain of ended Begin flows, or its free chain
	cg       *blkio.Cgroup
	proc     *sim.Proc // the blocked issuer; nil on a Begin flow, which the device finishes
	tok      *Token    // non-nil on a cancellable transfer; armed by issue
	bytes    float64   // total requested
	bytesRem float64
	rate     float64 // current bytes/sec
	write    bool
	done     bool
	canceled bool // aborted via Token.Cancel; issuer observes and recycles
	fallible bool // check failReads at issue time
	failed   bool // read error observed at issue time
	gi       int  // index of the flow's group in Device.groups, from issue to drain
}

// Fire is the flow as its own sim.Callback, carrying the per-transfer
// state without a per-call closure: the issue after the request-latency
// wait (a device event), then for an ended Begin flow the finish.
func (f *flow) Fire() {
	d, tok := f.d, f.tok
	if f.done || f.canceled {
		tok.notify.TransferDone(tok, d.finish(f))
		return
	}
	d.firing = true
	if d.issue(f) {
		d.end(f)
	}
	d.tellEnded()
}

// deadline returns the time the flow's token cancels it at, +Inf for none.
func (f *flow) deadline() float64 {
	if f.tok == nil || f.tok.deadline <= 0 {
		return math.Inf(1)
	}
	return f.tok.deadline
}

// wfGroup is one (cgroup, direction) aggregation of the active flows. A
// flow joins its group at issue and a drain rebuilds the table (see
// Device.groups); every reshape reads a group's weight and cap afresh and
// water-fills it again.
type wfGroup struct {
	cg     *blkio.Cgroup
	write  bool
	fixed  bool // water-filling: capped, its alloc is its cap
	weight float64
	cap    float64 // 0 = unlimited
	alloc  float64
	nflows int
}

// Device is a simulated shared block device. All methods must be called
// from sim context (a process body or event callback).
type Device struct {
	eng *sim.Engine
	p   Params

	flows      []*flow // in issue order, for deterministic iteration
	lastUpdate float64
	timer      sim.Timer // the completion timer, whose body is the device's Fire

	readErr, cancelErr devError // what a failed and a cancelled transfer return

	// While a device event runs (firing), Begin flows that end join the
	// ended chain under consecutive reserved seqs endSeq … endNext-1.
	firing          bool
	ended, endTail  *flow
	endSeq, endNext int64

	free      *flow             // recycled flow structs, chained through next
	flowSlab  slab.Chunks[flow] // where a miss on the free chain takes its flow from
	deadlined int               // active flows with a deadline; 0 keeps the scan and the expiry off the fault-free path
	// groups holds the active flows' groups in the order of each group's
	// oldest flow, the order the water-filling sums in: a new group goes
	// last, and a drain rebuilds the table from the flows.
	groups []wfGroup

	// Injected degradation (see internal/fault): bwFactor scales the
	// delivered bandwidth (1 = healthy, 0 = stuck device), extraLatency
	// adds to the per-request cost, and failReads fails fallible reads.
	bwFactor     float64
	extraLatency float64
	failReads    bool

	// share is an externally managed bandwidth share in (0,1]: the
	// fraction of the device a cluster-level allocator grants this node
	// (e.g. the object store's shared-egress water-filling in
	// internal/objstore). It composes multiplicatively with bwFactor so
	// fault injection and egress shaping remain independent knobs.
	share float64

	// accounting
	totalBytes float64
	busyTime   float64
	used       float64 // staged bytes (capacity accounting)
}

// New creates a device bound to an engine. It panics on invalid Params
// (scenario construction is programmer-controlled).
func New(eng *sim.Engine, p Params) *Device {
	if err := p.validate(); err != nil {
		panic(err)
	}
	d := &Device{eng: eng, p: p, bwFactor: 1, share: 1}
	name := strconv.Quote(p.Name)
	d.readErr = devError{"device " + name + ": " + ErrRead.Error(), ErrRead}
	d.cancelErr = devError{"device " + name + ": " + ErrCanceled.Error(), ErrCanceled}
	return d
}

// Name returns the device name.
func (d *Device) Name() string { return d.p.Name }

// Params returns the device parameters.
func (d *Device) Params() Params { return d.p }

// Engine returns the engine the device runs on.
func (d *Device) Engine() *sim.Engine { return d.eng }

// ActiveFlows reports the number of in-flight flows.
func (d *Device) ActiveFlows() int { return len(d.flows) }

// TotalBytes returns cumulative bytes transferred.
func (d *Device) TotalBytes() float64 { return d.totalBytes }

// BusyTime returns cumulative seconds during which at least one flow was
// active. It only reads: integrating here would move later float bits.
func (d *Device) BusyTime() float64 {
	if len(d.flows) == 0 {
		return d.busyTime
	}
	return d.busyTime + max(d.eng.Now()-d.lastUpdate, 0)
}

// Efficiency returns eff(n) for n concurrent flows.
func (d *Device) Efficiency(n int) float64 {
	if n <= 1 {
		return 1
	}
	return math.Max(1/(1+d.p.SeekThrash*float64(n-1)), d.p.MinEfficiency)
}

// EffectiveBandwidth returns the aggregate bandwidth the device delivers
// with n concurrent flows, including any injected degradation.
func (d *Device) EffectiveBandwidth(n int) float64 {
	return d.p.PeakBandwidth * d.bwFactor * d.share * d.Efficiency(n)
}

// SetShare sets the externally allocated bandwidth share in (0,1]. The
// cluster-level egress allocator (internal/objstore) calls this when the
// water-filling pass regrants per-node shares of the shared link; it is
// orthogonal to SetFault, so injected degradation and egress shaping
// compose. In-flight flows reshape immediately. Must be called from sim
// context.
func (d *Device) SetShare(frac float64) {
	if frac <= 0 || frac > 1 || math.IsNaN(frac) {
		panic(fmt.Sprintf("device %q: share %v out of (0,1]", d.p.Name, frac))
	}
	if frac == d.share {
		return
	}
	d.share = frac
	d.Touch()
}

// Share returns the externally allocated bandwidth share (1 = whole
// device).
func (d *Device) Share() float64 { return d.share }

// SetFault injects a device-level degradation: bwFactor scales the
// delivered bandwidth (0 = stuck device: all flows stall until the fault
// clears), extraLatency adds seconds of per-request cost. In-flight flows
// reshape immediately. Must be called from sim context.
func (d *Device) SetFault(bwFactor, extraLatency float64) {
	if bwFactor < 0 || bwFactor > 1 || math.IsNaN(bwFactor) {
		panic(fmt.Sprintf("device %q: fault bwFactor %v out of [0,1]", d.p.Name, bwFactor))
	}
	if extraLatency < 0 || math.IsNaN(extraLatency) {
		panic(fmt.Sprintf("device %q: negative fault latency %v", d.p.Name, extraLatency))
	}
	d.bwFactor = bwFactor
	d.extraLatency = extraLatency
	d.Touch()
}

// ClearFault restores healthy bandwidth and latency; stalled flows resume.
// Must be called from sim context.
func (d *Device) ClearFault() { d.SetFault(1, 0) }

// Faulted reports whether a degradation fault is currently injected.
func (d *Device) Faulted() bool { return d.bwFactor != 1 || d.extraLatency != 0 }

// SetReadError toggles transient read errors: while enabled, a fallible
// read (TryReadCancel, or Begin with fallible set) pays the request
// latency and then fails without transferring. Read and Write are
// unaffected (writes land in the page cache; the fault models a
// read path returning EIO).
func (d *Device) SetReadError(fail bool) { d.failReads = fail }

// ReadErrorActive reports whether read errors are being injected.
func (d *Device) ReadErrorActive() bool { return d.failReads }

// Reserve accounts bytes of staged capacity on the device. It returns an
// error if the device would exceed its capacity; staging planners use this
// to decide tier placement.
func (d *Device) Reserve(bytes float64) error {
	if !(bytes >= 0) || math.IsInf(bytes, 1) {
		return fmt.Errorf("device %q: invalid reservation of %v bytes", d.p.Name, bytes)
	}
	if !d.TryReserve(bytes) {
		return fmt.Errorf("device %q: capacity exceeded (%.0f + %.0f > %.0f bytes)",
			d.p.Name, d.used, bytes, d.p.Capacity)
	}
	return nil
}

// TryReserve is Reserve of a valid count with no error value built, so an
// engine callback may call it.
func (d *Device) TryReserve(bytes float64) bool {
	if d.p.Capacity > 0 && d.used+bytes > d.p.Capacity {
		return false
	}
	d.used += bytes
	return true
}

// Release returns previously reserved capacity (ephemeral data erased
// after a job exits).
func (d *Device) Release(bytes float64) { d.used -= bytes }

// Used returns currently reserved bytes.
func (d *Device) Used() float64 { return d.used }

// Read transfers `bytes` from the device under cgroup cg, blocking the
// calling process until complete. It returns the elapsed virtual time.
// Read never fails (injected read errors affect only fallible reads; see
// internal/fault).
//
// The request path (transfer → reshape → water-filling) is the device
// service loop; tangolint's hotpath analyzer verifies it allocates only
// through the flow slab (BenchmarkServiceLoop{1Flow,4Flows,8Flows}).
//
//tango:hotpath
func (d *Device) Read(p *sim.Proc, cg *blkio.Cgroup, bytes float64) float64 {
	el, _ := d.transfer(p, cg, bytes, false, false, nil)
	return el
}

// Write transfers `bytes` to the device under cgroup cg, blocking the
// calling process until complete. It returns the elapsed virtual time.
//
//tango:hotpath
func (d *Device) Write(p *sim.Proc, cg *blkio.Cgroup, bytes float64) float64 {
	el, _ := d.transfer(p, cg, bytes, true, false, nil)
	return el
}

// Token identifies one in-flight cancellable transfer. The issuing call
// (TryReadCancel or Begin) arms it; another event callback or process may
// then call Cancel to abort the transfer. Tokens are plain values owned by
// the caller and are re-armed on every call, so one long-lived Token per
// retry context is the intended (zero-alloc) usage.
type Token struct {
	d        *Device
	f        *flow      // from issue to finish only: never a recycled flow
	pre      bool       // cancelled during the request-latency phase, before the flow was issued
	spent    bool       // the transfer has finished (success, error, or cancel); Cancel is a no-op
	moved    float64    // bytes actually transferred when the transfer ended
	deadline float64    // virtual time at which the device cancels the transfer; 0 or +Inf = none
	notify   Completion // Begin only: told when the transfer ends after the call
}

// Completion is told a Begin transfer ended; err is what a blocking call returns.
type Completion interface {
	TransferDone(tok *Token, err error)
}

// Moved reports the bytes the last transfer actually moved: the full
// request on success, the partial progress on cancel, 0 on a read error.
func (t *Token) Moved() float64 { return t.moved }

// Cancel aborts the token's in-flight transfer, if any. It reports
// whether a transfer was actually cancelled. Safe to call at any time
// (including after completion, where it is a no-op) and from any sim
// context — typically the winning leg of a hedged read.
//
//tango:hotpath
func (t *Token) Cancel() bool {
	if f, d := t.f, t.d; f != nil {
		if f.done || f.canceled {
			return false // ended: its finish is due
		}
		d.advance()
		d.cancel(f)
		d.reshape()
		return true
	}
	if t.d == nil || t.spent || t.pre {
		return false
	}
	t.pre = true // transfer is still paying request latency; issue fails it
	return true
}

// TryReadCancel is Read on a fallible path: while a read-error fault is
// injected it pays the request latency and returns an error wrapping
// ErrRead without transferring. tok is re-armed for this transfer,
// tok.Cancel() aborts it mid-flight, and at virtual time deadline
// (per-attempt timeouts; 0 or +Inf = none) the device's own completion
// timer does. A cancelled transfer accounts the bytes it moved to the
// cgroup and returns an error wrapping ErrCanceled; tok.Moved has the
// partial progress. A nil tok cannot be cancelled.
//
//tango:hotpath
func (d *Device) TryReadCancel(p *sim.Proc, cg *blkio.Cgroup, bytes float64, tok *Token, deadline float64) (float64, error) {
	if tok != nil {
		*tok = Token{d: d, deadline: deadline}
	}
	return d.transfer(p, cg, bytes, false, true, tok)
}

// Begin is Read, Write or TryReadCancel (fallible) for engine callbacks
// that stand where a blocked issuer stood, told of the end where it was:
// one at issue inside the call (no request latency) is finished and
// returned, ended true with the blocking call's error, as the issuer
// carried on at once; any other is finished by the device, which calls
// done.TransferDone from the event a blocked issuer would have woken in.
//
//tango:hotpath
func (d *Device) Begin(cg *blkio.Cgroup, bytes float64, write, fallible bool, tok *Token, deadline float64, done Completion) (ended bool, err error) {
	*tok = Token{d: d, deadline: deadline, notify: done}
	if f, ended := d.begin(nil, cg, bytes, write, fallible, tok); ended {
		return true, d.finish(f)
	}
	return false, nil
}

// transfer is the blocking request path behind Read, Write and
// TryReadCancel: begin, park until the flow has ended, finish.
//
//tango:hotpath
func (d *Device) transfer(p *sim.Proc, cg *blkio.Cgroup, bytes float64, write, fallible bool, tok *Token) (float64, error) {
	start := d.eng.Now()
	f, _ := d.begin(p, cg, bytes, write, fallible, tok)
	for !f.done && !f.canceled {
		p.Suspend()
	}
	return d.eng.Now() - start, d.finish(f)
}

// begin starts every request. The flow is issued from an engine-side
// event at start+latency rather than by sleeping the process just to
// issue the flow and park again: the issue event occupies exactly the
// queue slot a Sleep's resume event would, and each transfer saves a
// coroutine round-trip. With no latency it is issued inline, and begin
// reports whether it ended there; the caller tells the issuer.
func (d *Device) begin(p *sim.Proc, cg *blkio.Cgroup, bytes float64, write, fallible bool, tok *Token) (*flow, bool) {
	if bytes < 0 || math.IsNaN(bytes) {
		panic(fmt.Sprintf("device %q: invalid transfer size %v", d.p.Name, bytes))
	}
	f := d.free
	if f != nil {
		d.free, f.next = f.next, nil
	} else {
		f = d.flowSlab.Next()
	}
	f.d, f.cg, f.proc, f.tok = d, cg, p, tok
	f.bytes, f.bytesRem, f.write, f.fallible = bytes, bytes, write, fallible
	if lat := d.p.RequestLatency + d.extraLatency; lat > 0 {
		d.eng.AtCall(d.eng.Now()+lat, f)
		return f, false
	}
	return f, d.issue(f)
}

// finish ends every request, on the issuing process or from Fire: outcome,
// flow recycled (it left the active set), token spent, bytes accounted.
//
//tango:hotpath
func (d *Device) finish(f *flow) error {
	moved := f.bytes
	var err error
	switch {
	case f.canceled:
		moved, err = math.Max(f.bytes-f.bytesRem, 0), &d.cancelErr
	case f.failed:
		moved, err = 0, &d.readErr
	}
	cg, write, tok := f.cg, f.write, f.tok
	*f = flow{next: d.free}
	d.free = f
	if tok != nil {
		tok.f, tok.spent, tok.moved = nil, true, moved
	}
	cg.Account(moved, write)
	return err
}

// end tells the issuer its flow has ended: a blocked process wakes up
// and finishes it, a Begin flow fires once more to finish itself — at the
// tail of the device event it ended in, under the seq its own event would
// take, while the chain's seqs run on; else from its own event.
func (d *Device) end(f *flow) {
	switch {
	case f.proc != nil:
		d.eng.Wake(f.proc)
	case d.firing && (d.ended == nil || d.eng.Scheduled() == d.endNext):
		seq := d.eng.Reserve()
		if d.ended == nil {
			d.ended, d.endSeq = f, seq
		} else {
			d.endTail.next = f
		}
		d.endTail, d.endNext = f, seq+1
	default:
		d.eng.AtCall(d.eng.Now(), f)
	}
}

// tellEnded ends a device event: the ended chain fires in end order, each
// flow under its reserved seq.
func (d *Device) tellEnded() {
	f, seq := d.ended, d.endSeq
	d.firing, d.ended = false, nil
	for f != nil {
		next := f.next // finish puts f on the free chain
		d.eng.FireReserved(seq, f)
		f, seq = next, seq+1
	}
}

// cancel aborts an active flow integrated to now, crediting its partial
// bytes; the reshape every caller runs next drops it from d.flows.
func (d *Device) cancel(f *flow) {
	f.canceled = true
	d.totalBytes += f.bytes - f.bytesRem
	d.end(f)
}

// issue runs at the instant the request latency has been paid — inline
// on the issuer when there is none, else as the flow's Fire event. A
// request cancelled or past its deadline while paying the latency, one
// that hits an injected read error, or one for zero bytes ends here
// without joining the active set, and issue reports it for its caller to
// tell the issuer; anything else subscribes the cgroup, arms the token,
// integrates to now and reshapes.
//
//tango:hotpath
func (d *Device) issue(f *flow) (ended bool) {
	switch {
	case f.tok != nil && (f.tok.pre || f.deadline() <= d.eng.Now()):
		f.canceled = true
	case f.fallible && d.failReads:
		f.failed = true
		f.done = true
	case f.bytes == 0:
		f.done = true
	}
	if f.done || f.canceled {
		return true
	}
	f.cg.Subscribe(d) // the cgroup keeps the first: "ever had a flow here"
	if f.tok != nil {
		f.tok.f = f
		if !math.IsInf(f.deadline(), 1) {
			d.deadlined++
		}
	}
	d.advance()
	d.flows = append(d.flows, f)
	d.join(f)
	d.reshape()
	return false
}

// join adds f to its (cgroup, direction) group, a new one going last.
// Groups are keyed by cgroup identity (not name): distinct cgroups that
// happen to share a name still schedule independently. The group count is
// small, so a linear scan beats a map.
func (d *Device) join(f *flow) {
	for j := range d.groups {
		if g := &d.groups[j]; g.cg == f.cg && g.write == f.write {
			g.nflows++
			f.gi = j
			return
		}
	}
	d.groups = append(d.groups, wfGroup{cg: f.cg, write: f.write, nflows: 1})
	f.gi = len(d.groups) - 1
}

// Touch forces a share recomputation at the current instant; cgroup
// parameter changes call this (the device is the blkio.Subscriber of every
// cgroup it issued a flow for) so weight adjustments take effect on
// in-flight flows immediately.
//
//tango:hotpath
func (d *Device) Touch() {
	if len(d.flows) > 0 {
		d.advance()
		d.reshape()
	}
}

// advance integrates flow progress from lastUpdate to now at current
// rates and updates busy-time accounting.
func (d *Device) advance() {
	now := d.eng.Now()
	dt := max(now-d.lastUpdate, 0)
	if len(d.flows) > 0 && dt > 0 {
		for _, f := range d.flows {
			f.bytesRem = max(f.bytesRem-f.rate*dt, 0)
		}
		d.busyTime += dt
	}
	d.lastUpdate = now
}

// reshape recomputes per-flow rates (proportional share with throttle
// water-filling), completes drained flows, and schedules the next
// completion event.
func (d *Device) reshape() {
	d.completeDrained()
	n := len(d.flows)
	if n == 0 {
		d.timer.Stop()
		return
	}
	if d.p.Scheduler == FIFO {
		// Head-of-line service: the oldest flow gets the full single-
		// stream bandwidth, everyone else waits.
		for _, f := range d.flows {
			f.rate = 0
		}
		d.flows[0].rate = d.p.PeakBandwidth * d.bwFactor * d.share
		d.scheduleCompletion()
		return
	}
	// Water-filling: proportional-by-weight allocation with per-group caps
	// (the kernel throttles read and write bytes separately per cgroup);
	// capped groups' excess is redistributed among the rest. Each round
	// classifies against the round's starting remaining and subtracts the
	// caps in group order — the float operation order is part of the
	// determinism contract. With no binding cap it is one round.
	remaining := d.EffectiveBandwidth(n)
	var sumW float64
	for j := range d.groups {
		g := &d.groups[j]
		g.weight, g.cap, g.fixed = float64(g.cg.Weight()), g.cg.ReadBpsLimit(), false
		if g.write {
			g.cap = g.cg.WriteBpsLimit()
		}
		sumW += g.weight
	}
	settled := false
	for !settled && remaining > 1e-9 && sumW > 0 {
		start, next := remaining, 0.0
		settled = true
		for j := range d.groups {
			g := &d.groups[j]
			if g.fixed {
				continue
			}
			if g.alloc = start * g.weight / sumW; g.cap > 0 && g.alloc >= g.cap {
				g.alloc, g.fixed, settled = g.cap, true, false
				remaining -= g.cap
			} else {
				next += g.weight
			}
		}
		remaining, sumW = max(remaining, 0), next
	}
	for j := 0; !settled && j < len(d.groups); j++ {
		if g := &d.groups[j]; !g.fixed {
			g.alloc = 0 // the bandwidth ran out first
		}
	}

	// Within a group, CFQ services flows round-robin: equal split.
	// Write flows stream at WriteFactor of their allocated rate.
	wf := d.p.WriteFactor
	if wf == 0 {
		wf = 1
	}
	for _, f := range d.flows {
		g := &d.groups[f.gi]
		if f.rate = g.alloc / float64(g.nflows); f.write {
			f.rate *= wf
		}
	}
	d.scheduleCompletion()
}

// scheduleCompletion arms the one timer for the earliest completion under
// the current rates or the earliest deadline — all there is when every
// flow is stalled. Absolute time: a deadline as a delay drifts an ulp.
func (d *Device) scheduleCompletion() {
	next := math.Inf(1)
	for _, f := range d.flows {
		if f.rate > 0 {
			t := f.bytesRem / f.rate
			if t < next {
				next = t
			}
		}
	}
	when := d.eng.Now() + next
	if d.deadlined > 0 {
		for _, f := range d.flows {
			when = math.Min(when, f.deadline())
		}
	}
	d.timer.Stop() // a stale handle's Stop is a no-op
	if !math.IsInf(when, 1) {
		d.timer = d.eng.AtCall(when, d)
	}
}

// Fire is the device as its own sim.Callback, the completion timer's event:
// integrate, cancel the flows past their deadline, reshape, tell the ended.
func (d *Device) Fire() {
	d.firing = true
	d.advance()
	for i := 0; d.deadlined > 0 && i < len(d.flows); i++ {
		if f := d.flows[i]; f.deadline() <= d.eng.Now() {
			d.cancel(f) // before reshape completes the drained: a tie goes to the deadline
		}
	}
	d.reshape()
	d.tellEnded()
}

// completeDrained drops the drained and the cancelled from the active set
// and their groups, keeping the group order (see Device.groups).
func (d *Device) completeDrained() {
	kept := d.flows[:0]
	for _, f := range d.flows {
		if !f.canceled {
			// A flow is done when less than a nanosecond of work remains at
			// its current rate (plus an absolute floor for idle rates). A
			// fixed byte tolerance is not enough: clock arithmetic like
			// (t0+dt)-t0 loses ~1e-13 s of precision, which at 100 MB/s
			// leaves ~1e-5 bytes behind and would otherwise reschedule
			// zero-length timers forever (a Zeno loop).
			tiny := 1e-6 + f.rate*1e-9
			if f.bytesRem > tiny {
				kept = append(kept, f)
				continue
			}
			f.bytesRem = 0
			f.done = true
			d.totalBytes += f.bytes
			d.end(f)
		}
		if d.deadlined > 0 && !math.IsInf(f.deadline(), 1) {
			d.deadlined--
		}
	}
	if len(kept) == len(d.flows) {
		return
	}
	clear(d.flows[len(kept):])
	// A drained flow may have been its group's last or its oldest, so the
	// table is rebuilt in first-appearance order.
	d.flows = kept
	d.groups = d.groups[:0]
	for _, f := range d.flows {
		d.join(f)
	}
}
