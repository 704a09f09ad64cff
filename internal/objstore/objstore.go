// Package objstore models the remote object-store capacity tier (L3)
// behind a fleet of simulated nodes. Each node sees the store through a
// Remote: a per-node frontend device (request latency + bounded per-node
// bandwidth, no seek thrash — object stores stream) created on the
// node's own sim engine, so all I/O against the store stays inside that
// node's deterministic event loop. What couples the nodes is the store's
// shared egress link: the cluster-level water-filling pass (Reshare)
// divides TotalEgress across the nodes' demands and grants each Remote a
// share of its frontend bandwidth, exactly the proportional-share-with-
// caps discipline internal/device applies to cgroup flows one level
// down.
//
// The store also keeps the cluster-level accounting the fleet experiment
// reports: egress/ingress bytes, request counts, and dollar cost. Per-
// node Remotes accumulate locally (inside their engine's run window);
// the cluster coordinator harvests them in node-index order at epoch
// barriers, so totals are byte-identical at any runpool worker width.
package objstore

import (
	"fmt"

	"tango/internal/device"
	"tango/internal/sim"
)

const mb = 1024 * 1024

// Params describes one object store shared by a fleet.
type Params struct {
	Name string
	// NodeBandwidth is the per-node frontend cap in bytes/s (NIC share /
	// per-client throttle). Each Remote's device peaks here.
	NodeBandwidth float64
	// TotalEgress is the store-wide egress capacity in bytes/s shared by
	// all nodes. Oversubscribed relative to nodes×NodeBandwidth, it is
	// what makes the fleet contend (Reshare water-fills it).
	TotalEgress float64
	// RequestLatency is the fixed per-request cost in seconds (HTTP
	// round trip + storage-service dispatch).
	RequestLatency float64
	// CostPerGB is the dollar cost per GB of egress+ingress traffic.
	CostPerGB float64
	// CostPerReq is the dollar cost per request.
	CostPerReq float64
}

// Default returns parameters loosely calibrated to a cloud object store
// serving a fleet of n nodes: 200 MB/s per-node frontend, a shared
// egress link oversubscribed 4:1 against the node frontends (contention
// appears exactly when the fleet bursts together, e.g. cold starts and
// mass migrations), ~30 ms per request, and list-price-shaped costs.
func Default(n int) Params {
	nodeBW := 200.0 * mb
	total := max(nodeBW*float64(n)/4, nodeBW) // also for n < 1
	return Params{
		Name:           "objstore",
		NodeBandwidth:  nodeBW,
		TotalEgress:    total,
		RequestLatency: 0.030,
		CostPerGB:      0.09,
		CostPerReq:     4e-7,
	}
}

func (p Params) validate() error {
	if p.NodeBandwidth <= 0 {
		return fmt.Errorf("objstore %q: NodeBandwidth must be > 0", p.Name)
	}
	if p.TotalEgress <= 0 {
		return fmt.Errorf("objstore %q: TotalEgress must be > 0", p.Name)
	}
	if p.RequestLatency < 0 || p.CostPerGB < 0 || p.CostPerReq < 0 {
		return fmt.Errorf("objstore %q: negative latency or cost", p.Name)
	}
	return nil
}

// Stats is one traffic ledger: bytes out of the store (egress, i.e. node
// reads), bytes into it (ingress: migration drains, spills), and request
// counts.
type Stats struct {
	EgressBytes  float64
	IngressBytes float64
	Requests     int
}

// add merges o into s.
func (s *Stats) add(o Stats) {
	s.EgressBytes += o.EgressBytes
	s.IngressBytes += o.IngressBytes
	s.Requests += o.Requests
}

// Store is the cluster-level view of one object store: the shared-egress
// allocator plus the harvested traffic totals. All methods must be
// called from barrier context (single-threaded, node-index order); the
// Store is never touched while node engines run in parallel.
type Store struct {
	p       Params
	remotes []*Remote
	totals  Stats

	grants []float64 // Reshare scratch, reused across barriers
	active []int     // water-filling round (node indices)
	next   []int     // next round
}

// New creates a store. It panics on invalid Params (cluster construction
// is programmer-controlled).
func New(p Params) *Store {
	if err := p.validate(); err != nil {
		panic(err)
	}
	return &Store{p: p}
}

// Totals returns the harvested cluster-wide traffic ledger.
func (s *Store) Totals() Stats { return s.totals }

// Cost returns the dollar cost of the harvested traffic.
func (s *Store) Cost() float64 {
	gb := (s.totals.EgressBytes + s.totals.IngressBytes) / (1024 * mb)
	return float64(gb*s.p.CostPerGB) + float64(float64(s.totals.Requests)*s.p.CostPerReq)
}

// Attach creates the store frontend for one node: a device on the
// node's engine peaking at NodeBandwidth with the store's request
// latency and no seek thrash. Returns the node's Remote. The attach
// order fixes the node index Reshare grants are keyed by.
func (s *Store) Attach(eng *sim.Engine) *Remote {
	r := &Remote{dev: s.frontend(eng), index: len(s.remotes)}
	s.remotes = append(s.remotes, r)
	return r
}

// Detach replaces the Remote at a node index with a fresh frontend on a
// new engine (the fleet rebuilds a node's engine when the node is killed
// and later revived — ephemeral state does not outlive the node). Any
// unharvested traffic on the old Remote is harvested first so the ledger
// never loses bytes.
func (s *Store) Detach(index int, eng *sim.Engine) *Remote {
	old := s.remotes[index]
	s.totals.add(old.take())
	r := &Remote{dev: s.frontend(eng), index: index}
	s.remotes[index] = r
	return r
}

// frontend is one node's store device on eng.
func (s *Store) frontend(eng *sim.Engine) *device.Device {
	return device.New(eng, device.Params{
		Name:           s.p.Name,
		PeakBandwidth:  s.p.NodeBandwidth,
		RequestLatency: s.p.RequestLatency,
		SeekThrash:     0,
		MinEfficiency:  1,
	})
}

// Harvest folds every Remote's locally accumulated traffic into the
// store totals, in node-index order. Barrier context only.
func (s *Store) Harvest() {
	for _, r := range s.remotes {
		s.totals.add(r.take())
	}
}

// Reshare water-fills the shared egress across per-node demands
// (bytes/s, indexed like the remotes) and applies the resulting share to
// every node's frontend device. A negative demand marks a node that is
// out of service: it is granted nothing and its frontend (an abandoned
// engine's device) is left untouched. Every in-service node first
// reserves a small floor (1% of the frontend, paid for out of the shared
// link before water-filling) so a mispredicted-demand node can still
// trickle-fetch and re-observe; a node's total grant is capped by its
// frontend (NodeBandwidth), and capped or low-demand nodes release their
// excess to the others. The sum of grants never exceeds TotalEgress. The
// returned slice (valid until the next call) holds the granted bytes/s
// per node. Barrier context only: the float operation order — node
// index order within each round — is part of the determinism contract.
//
//tango:hotpath
func (s *Store) Reshare(demands []float64) []float64 {
	if len(demands) != len(s.remotes) {
		panic(fmt.Sprintf("objstore %q: %d demands for %d remotes", s.p.Name, len(demands), len(s.remotes)))
	}
	s.grants = s.grants[:0]
	cur := s.active[:0] // the in-service nodes
	for i := range s.remotes {
		s.grants = append(s.grants, 0)
		if demands[i] >= 0 {
			cur = append(cur, i)
		}
	}
	// Reserve the floor for every in-service node up front — deducted
	// from the shared link, so floors can never oversubscribe it. If the
	// link cannot cover even the floors, the floor shrinks to an even
	// split (SetShare rejects 0, so keep it strictly positive).
	if len(cur) == 0 {
		return s.grants
	}
	live := float64(len(cur))
	floor := 0.01 * s.p.NodeBandwidth
	if floor*live > s.p.TotalEgress {
		floor = s.p.TotalEgress / live
	}
	remaining := s.p.TotalEgress - float64(floor*live)
	// Round-based water-filling of the rest: each round splits the
	// remaining egress equally among still-unsatisfied nodes; nodes
	// whose (headroom-padded) demand or frontend cap sits below the fair
	// share are granted exactly that and leave the round, releasing the
	// excess. Mirrors the cgroup water-filling in internal/device.
	for _, i := range cur {
		s.grants[i] = floor
	}
	nxt := s.next[:0]
	for len(cur) > 0 && remaining > 1e-9 {
		fair := remaining / float64(len(cur))
		granted := false
		nxt = nxt[:0]
		for _, i := range cur {
			want := max(min(demands[i], s.p.NodeBandwidth)-floor, 0) // the floor is already granted
			if want <= fair {
				s.grants[i] += want
				remaining -= want
				granted = true
			} else {
				nxt = append(nxt, i)
			}
		}
		if !granted {
			// Everyone left wants at least the fair share: split evenly.
			for _, i := range cur {
				s.grants[i] += fair
			}
			remaining = 0
			nxt = nxt[:0]
		}
		cur, nxt = nxt, cur
	}
	s.active, s.next = cur[:0], nxt[:0]
	for i, r := range s.remotes {
		if demands[i] < 0 {
			continue // out of service: leave the abandoned frontend alone
		}
		frac := s.grants[i] / s.p.NodeBandwidth
		if frac > 1 {
			frac = 1
			s.grants[i] = s.p.NodeBandwidth
		}
		r.dev.SetShare(frac)
	}
	return s.grants
}

// Remote is one node's frontend onto the store. Its device lives on the
// node's engine; reads and writes against it are ordinary simulated
// transfers (the fleet routes miss reads through the resilience key
// fleet.read.objstore against Device()). Traffic accounting accumulates
// locally and is harvested at barriers.
type Remote struct {
	dev   *device.Device
	index int
	local Stats
}

// Device returns the frontend device (for resil-guarded reads and for
// direct Read/Write calls from session procs).
func (r *Remote) Device() *device.Device { return r.dev }

// AccountGet records one completed GET of the given bytes (egress).
// Partial transfers (cancelled or failed attempts) account what actually
// moved. Safe from the node's engine context.
//
//tango:hotpath
func (r *Remote) AccountGet(bytes float64) {
	r.local.EgressBytes += bytes
	r.local.Requests++
}

// AccountPut records one PUT of the given bytes (ingress: migration
// drains, spills). Safe from the node's engine context, and from
// barrier context for drain accounting of a node that is being killed
// (the bytes were already on its L2; the drain is the store-side copy).
//
//tango:hotpath
func (r *Remote) AccountPut(bytes float64) {
	r.local.IngressBytes += bytes
	r.local.Requests++
}

// take drains the local ledger (harvest).
func (r *Remote) take() Stats {
	out := r.local
	r.local = Stats{}
	return out
}

// FmtGB formats bytes as gigabytes with two decimals (report columns).
func FmtGB(bytes float64) string {
	return fmt.Sprintf("%.2f", bytes/(1024*mb))
}
