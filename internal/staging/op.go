package staging

import (
	"tango/internal/blkio"
	"tango/internal/device"
	"tango/internal/refactor"
	"tango/internal/resil"
	"tango/internal/trace"
)

// GuardedOutcome reports what a guarded read actually achieved.
type GuardedOutcome struct {
	Cursor   int  // absolute cursor reached (== `to` unless degraded)
	Retries  int  // failed requests that were retried
	Degraded bool // optional augmentation was abandoned mid-range
}

// Op is one read of a store run by engine callbacks, for a caller that
// embeds it where a blocked process would stand. Every part is a read
// through the store's controller (Store.SetResil): a resil.ReadOp, whose
// transfers and backoffs report to it, or a hedge race. A method returns
// false when the read ended inside the call, as a blocked reader carried
// on at once there; otherwise done hears of the end from the event the
// blocked reader carried on in. Either way the outcome is TS, and Out for
// a guarded read.
type Op struct {
	TS  TierStats
	Out GuardedOutcome

	s    *Store
	cg   *blkio.Cgroup
	done Done
	kind opKind
	mode partMode // how the part in flight is read: what ends it

	at, to, mandatory int // a range read's next segment start, end and mandatory cursor
	home              *device.Device
	parts             [2]segPart // of the segment being read
	np, pi            int        // its parts, the part in flight

	p     *segPart // the part in flight
	rop   resil.ReadOp
	hedge *resil.Hedge // made at the first cached part a hedging key may race

	reads []tierRead // a parallel read's tiers, scratch kept across reads
	left  int        // tiers still reading
}

// Done is told that an Op a method left in flight has ended.
type Done interface{ OpDone() }

type opKind uint8

const (
	opBase  opKind = iota
	opRange        // guarded
	opSeq          // a parallel read's one tier
	opProbe
)

type partMode uint8

const (
	modeKey   partMode = iota // a resil key's read
	modeHedge                 // a hedge race, then the wake-up after its last leg
	modeJoin                  // parallel tiers, then the wake-up after the last
)

// ReadBase is the guarded base read under cg: the base representation is
// mandatory at every step, so a transient fault delays the read (retried
// without bound) rather than failing it.
func (o *Op) ReadBase(s *Store, cg *blkio.Cgroup, done Done) bool {
	o.begin(s, cg, opBase, done)
	o.parts[0], o.np = segPart{dev: s.baseDev, bytes: float64(s.h.BaseBytes()) * s.scale}, 1
	return o.next()
}

// ReadRange is the guarded read of the augmentation cursor range [from,
// to) under cg, coarse level first. Segments whose entries fall at or
// below mandatory (the cursor the prescribed error bound requires) are
// read through an unbounded key, retried until they succeed; optional
// segments through a bounded one, after which the read DEGRADES: the
// remaining optional augmentation is skipped and Out reports the cursor
// actually reached. A cached part may race its home copy (a hedge).
func (o *Op) ReadRange(s *Store, cg *blkio.Cgroup, from, to, mandatory int, done Done) bool {
	o.begin(s, cg, opRange, done)
	o.Out.Cursor, o.at, o.to, o.mandatory = from, from, to, mandatory
	return o.next()
}

// ReadRangeParallel reads the augmentation cursor range [from, to) under
// cg with one concurrent reader per tier, overlapping fast- and
// capacity-tier transfers, and ends when every tier has. This is an
// optimization beyond the paper's sequential Algorithm 1 loop (evaluated
// by the ablation-parallel experiment): it shortens the total step time
// but gives up the coarse-first completion order.
func (o *Op) ReadRangeParallel(s *Store, cg *blkio.Cgroup, from, to int, done Done) bool {
	o.begin(s, cg, opSeq, done)
	// Split every segment once up front (Serve does per-call hit/miss
	// bookkeeping), then group the parts by device, in first-appearance
	// order; a tier's parts array is kept for the next read.
	o.reads = o.reads[:0]
	var buf [segScratch]refactor.Segment
	for _, seg := range s.h.AppendSegments(buf[:0], from, to) {
		parts, n := s.segmentParts(seg)
		for _, part := range parts[:n] {
			i := 0
			for i < len(o.reads) && o.reads[i].dev != part.dev {
				i++
			}
			if i == len(o.reads) {
				if i == cap(o.reads) {
					o.reads = append(o.reads, tierRead{})
				}
				o.reads = o.reads[:i+1]
				o.reads[i] = tierRead{o: o, dev: part.dev, parts: o.reads[i].parts[:0]}
			}
			o.reads[i].parts = append(o.reads[i].parts, part)
		}
	}
	if len(o.reads) <= 1 {
		return o.next() // one tier or none: no concurrency to exploit
	}
	o.mode, o.left = modeJoin, len(o.reads)
	eng := s.baseDev.Engine()
	for i := range o.reads {
		eng.AtCall(eng.Now(), &o.reads[i])
	}
	return true
}

// Probe reads bytes from the slowest tier, as Store.Probe does, through
// the store controller's probe key.
func (o *Op) Probe(s *Store, cg *blkio.Cgroup, bytes float64, done Done) bool {
	o.begin(s, cg, opProbe, done)
	o.parts[0], o.np = segPart{dev: s.SlowestDevice(), bytes: bytes}, 1
	return o.next()
}

func (o *Op) begin(s *Store, cg *blkio.Cgroup, kind opKind, done Done) {
	o.TS, o.Out = TierStats{}, GuardedOutcome{}
	o.s, o.cg, o.kind, o.done = s, cg, kind, done
	o.at, o.to, o.mandatory, o.np, o.pi = 0, 0, 0, 0, 0
}

// next reads part after part until one is in flight (true) or none is
// left (false). A range read splits its next segment, consulting the
// cache, only once the one before it has been read.
func (o *Op) next() bool {
	for {
		switch {
		case o.kind == opSeq:
			if len(o.reads) == 0 || o.pi == len(o.reads[0].parts) {
				return false
			}
		case o.Out.Degraded:
			return false
		case o.kind == opRange && o.pi == o.np:
			var buf [segScratch]refactor.Segment
			segs := o.s.h.AppendSegments(buf[:0], o.at, o.to)
			if len(segs) == 0 {
				return false
			}
			o.at += segs[0].End - segs[0].Start
			o.home = o.s.DeviceForLevel(segs[0].Level)
			o.parts, o.np = o.s.segmentParts(segs[0])
			o.pi = 0
		case o.pi == o.np:
			return false
		}
		if o.startPart() {
			return true
		}
	}
}

// startPart starts reading the current part and reports whether it is in
// flight; one that ended inside the call is accounted.
func (o *Op) startPart() bool {
	if o.kind == opSeq {
		o.p = &o.reads[0].parts[o.pi]
	} else {
		o.p = &o.parts[o.pi]
	}
	if k := o.s.rc.Key(resil.KeyStagingReadHedge); k != nil && o.kind == opRange && o.p.dev != o.home {
		// A cache-resident prefix is a hedging opportunity: the same
		// bytes are on the cache device and the level's home tier, so
		// the controller may race them and cancel the loser.
		if o.hedge == nil {
			o.hedge = new(resil.Hedge)
		}
		o.mode = modeHedge
		if o.hedge.Start(k, o.p.dev, o.home, o.cg, o.p.bytes, o) {
			return true
		}
	}
	return o.readKey()
}

// readKey reads the part through its resil key — unbounded for mandatory
// data, bounded and degradable for optional augmentation — and reports
// whether the read is in flight. A parallel read's one tier reads through
// no key: plain reads.
func (o *Op) readKey() bool {
	var k *resil.Key
	switch {
	case o.kind == opBase:
		k = o.s.rc.Key(resil.KeyStagingReadBase)
	case o.kind == opProbe:
		k = o.s.rc.Key(resil.KeyStagingProbe)
	case o.kind == opRange && o.Out.Cursor < o.mandatory:
		k = o.s.rc.Key(resil.KeyStagingReadCapacity)
	case o.kind == opRange:
		k = o.s.rc.Key(resil.KeyStagingReadOptional)
	}
	o.mode = modeKey
	return o.rop.Start(k, o.p.dev, o.cg, o.p.bytes, o) || o.ended()
}

// ended takes the part read that ended and reports whether the part is in
// flight again: the key read after a race both legs lost. A probe that
// moved nothing yields no sample; the base is read until it lands.
func (o *Op) ended() bool {
	p := o.p
	switch o.mode {
	case modeKey:
		res := &o.rop.Res
		if o.kind != opProbe || res.Moved > 0 {
			o.TS.add(p.dev, res.Moved, res.Elapsed)
		}
		o.partDone(res.Retries, res.OK || o.kind != opRange)
	case modeHedge:
		hr := o.hedge.Result()
		if !hr.OK {
			return o.readKey()
		}
		winDev, loserDev := p.dev, o.home
		winMoved, loserMoved := hr.FastMoved, hr.SlowMoved
		if !hr.FastWon {
			winDev, loserDev = loserDev, winDev
			winMoved, loserMoved = loserMoved, winMoved
		}
		o.TS.add(winDev, winMoved, hr.Elapsed)
		if loserMoved > 0 {
			// The cancelled leg's partial bytes are real transfers on
			// that device; its time overlapped the winner's.
			o.TS.add(loserDev, loserMoved, 0)
		}
		o.partDone(0, true)
	}
	return false
}

// partDone ends the part in flight: a failed part degrades the read, any
// other moves the cursor past it.
func (o *Op) partDone(retries int, ok bool) {
	o.Out.Retries += retries
	if !ok {
		o.Out.Degraded = true
		o.s.rec.Emit(o.s.baseDev.Engine().Now(), o.s.src, trace.KindRecover, "degrade dev=%s cursor=%d of %d (fall back to lower augmentation)", o.p.dev.Name(), o.Out.Cursor, o.to)
		return
	}
	o.Out.Cursor += o.p.entries
	o.pi++
}

// TransferDone is the part read in flight ending: a key read, or a race
// whose last leg woke the blocked reader from an event, where the op
// carries on.
func (o *Op) TransferDone(*device.Token, error) {
	if eng := o.s.baseDev.Engine(); o.mode == modeHedge {
		eng.AtCall(eng.Now(), o)
	} else if !o.ended() {
		o.carryOn()
	}
}

// Fire ends the op's timer: the wake-up after a race or after the tiers of
// a parallel read.
func (o *Op) Fire() {
	if o.mode == modeJoin {
		for i := range o.reads {
			o.TS.Merge(o.reads[i].ts)
		}
		o.done.OpDone()
	} else if !o.ended() {
		o.carryOn()
	}
}

// carryOn goes on from a part that ended: the next part, or done.
func (o *Op) carryOn() {
	if !o.next() {
		o.done.OpDone()
	}
}

// tierRead is one tier's share of a parallel read: its parts read back to
// back, the next one started where the last one ended. Its first Fire is
// armed where a per-tier reader process used to be spawned, and each flow
// ends where that process carried on, so the reads are the process
// loop's, event for event.
type tierRead struct {
	o     *Op
	dev   *device.Device
	parts []segPart
	next  int     // the part in flight
	start float64 // when it started
	tok   device.Token
	ts    TierStats
}

// Fire starts the tier's next part.
func (r *tierRead) Fire() {
	r.start = r.dev.Engine().Now()
	if ended, _ := r.dev.Begin(r.o.cg, r.parts[r.next].bytes, false, false, &r.tok, 0, r); ended {
		r.TransferDone(&r.tok, nil)
	}
}

// TransferDone records the part that ended and starts the next; the last
// part of the last tier still reading wakes the op from an event, as it
// woke the blocked reader.
func (r *tierRead) TransferDone(*device.Token, error) {
	eng := r.dev.Engine()
	r.ts.add(r.dev, r.parts[r.next].bytes, eng.Now()-r.start)
	if r.next++; r.next < len(r.parts) {
		r.Fire()
	} else if r.o.left--; r.o.left == 0 {
		eng.AtCall(eng.Now(), r.o)
	}
}
