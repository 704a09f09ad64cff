package refactor

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"

	"tango/internal/errmetric"
	"tango/internal/tensor"
)

// The on-disk layout mirrors the paper's step-3 "shuffle and tag": each
// level's augmentation stream is stored contiguously in retrieval order
// (descending magnitude), so any bound's bucket is a contiguous byte
// range that can be read sequentially from its tier.

// entrySize returns the encoded size of one entry: uvarint index plus 8
// value bytes.
func entrySize(idx uint32) int { return uvarintLen(uint64(idx)) + 8 }

// uvarintLen returns how many bytes binary.PutUvarint writes for v: one
// per started 7 bits, and one for 0.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// growStep is how many elements Decode allocates ahead of the bytes that
// fill them when its reader cannot say how many bytes are left; append
// grows them further as those bytes arrive.
const growStep = 1 << 20

// EncodeEntries writes a run of entries, given as an index and a value
// column of one length, to w. Entries are staged into a stack scratch
// buffer and flushed in batches, so a long stream costs a handful of
// w.Write calls (and zero heap allocations) instead of one per entry —
// the per-entry buffer would otherwise escape through the io.Writer and
// dominate Encode's allocation profile.
//
//tango:hotpath
func EncodeEntries(w io.Writer, idx []uint32, val []float64) (int64, error) {
	var buf [4096]byte
	var total int64
	k := 0
	for i, v := range val {
		if k+binary.MaxVarintLen64+8 > len(buf) {
			m, err := w.Write(buf[:k])
			total += int64(m)
			if err != nil {
				return total, err
			}
			k = 0
		}
		k += binary.PutUvarint(buf[k:], uint64(idx[i]))
		binary.LittleEndian.PutUint64(buf[k:], math.Float64bits(v))
		k += 8
	}
	if k > 0 {
		m, err := w.Write(buf[:k])
		total += int64(m)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// roomFor returns how many of n elements, each at least per bytes long,
// may be allocated before any is read: all n when the left bytes a reader
// reports hold them, at most growStep when it cannot say (left < 0).
func roomFor(n, per, left int) (int, error) {
	if left < 0 {
		return min(n, growStep), nil
	}
	if n > left/per {
		return 0, fmt.Errorf("%d elements of at least %d bytes, %d bytes left", n, per, left)
	}
	return n, nil
}

// decodeEntries reads n entries, each index below size, appending them to
// columns with the room the left bytes r is known to hold allow
// (roomFor). A *bufio.Reader has its buffered bytes parsed in place
// (decodeBuffered); everything else, and whatever entry straddles the
// end of the buffer, is read a byte at a time, so r sees the same reads
// and a bad stream fails at the same entry either way.
func decodeEntries(r io.ByteReader, n, size, left int) (stream, error) {
	room, err := roomFor(n, 1+8, left) // a one-byte index at least
	if err != nil {
		return stream{}, err
	}
	s := stream{make([]uint32, 0, room), make([]float64, 0, room)}
	br, _ := r.(*bufio.Reader)
	for len(s.val) < n {
		if br != nil {
			if decodeBuffered(br, &s, n, size); len(s.val) == n {
				break
			}
		}
		i := len(s.val)
		// The index is checked against size as a uint64: narrowed first,
		// 2³²+5 would pass as 5.
		ix, err := binary.ReadUvarint(r)
		if err != nil {
			return stream{}, fmt.Errorf("entry %d index: %w", i, err)
		}
		if ix >= uint64(size) {
			return stream{}, fmt.Errorf("entry %d index %d outside a grid of %d points", i, ix, size)
		}
		var vb [8]byte
		for j := range vb {
			b, err := r.ReadByte()
			if err != nil {
				return stream{}, fmt.Errorf("entry %d value: %w", i, err)
			}
			vb[j] = b
		}
		s.idx, s.val = append(s.idx, uint32(ix)), append(s.val, math.Float64frombits(binary.LittleEndian.Uint64(vb[:])))
	}
	return s, nil
}

// decodeBuffered appends to s, up to n entries, from the bytes br already
// holds, for as long as a longest-possible entry is wholly buffered. It
// never reads from the underlying reader, and stops short of an index
// that overflows or is not below size so that the byte-wise path reports
// it.
func decodeBuffered(br *bufio.Reader, s *stream, n, size int) {
	const maxEntry = binary.MaxVarintLen64 + 8
	buf, _ := br.Peek(br.Buffered())
	for len(s.val) < n && len(buf) >= maxEntry {
		ix, m := binary.Uvarint(buf)
		if m <= 0 || ix >= uint64(size) {
			break
		}
		s.idx, s.val = append(s.idx, uint32(ix)), append(s.val, math.Float64frombits(binary.LittleEndian.Uint64(buf[m:])))
		buf = buf[m+8:]
	}
	_, _ = br.Discard(br.Buffered() - len(buf)) // buffered bytes: cannot fail
}

const fileMagic = "TNGO1\n"

// Encode serializes the hierarchy (options, ladder, base, augmentation
// streams) to w. The format is self-contained: Decode reconstructs an
// equivalent hierarchy without access to the original data. A writer that
// can Grow (*bytes.Buffer) is grown once to the exact length first.
func (h *Hierarchy) Encode(w io.Writer) error {
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(h.encodedLen())
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return err
	}
	// bufio.Writer errors are sticky: the final Flush reports the first
	// failure, so per-write errors are explicitly discarded here. The
	// scratch buffer is shared by both closures so it escapes once per
	// Encode, not once per write.
	var scratch [binary.MaxVarintLen64 + 8]byte
	writeU := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		_, _ = bw.Write(scratch[:n])
	}
	writeF := func(v float64) {
		binary.LittleEndian.PutUint64(scratch[:8], math.Float64bits(v))
		_, _ = bw.Write(scratch[:8])
	}

	writeU(uint64(h.opts.Levels))
	writeU(uint64(h.opts.Decimation))
	writeU(uint64(h.opts.Metric))
	writeU(uint64(len(h.opts.Bounds)))
	for _, b := range h.opts.Bounds {
		writeF(b)
	}

	dims := h.levelDims[0]
	writeU(uint64(len(dims)))
	for _, d := range dims {
		writeU(uint64(d))
	}
	writeU(uint64(h.origLen))
	writeF(h.baseAcc)

	writeU(uint64(h.base.Len()))
	for _, v := range h.base.Data() {
		writeF(v)
	}

	writeU(uint64(len(h.augs)))
	for _, aug := range h.augs {
		writeU(uint64(len(aug.val)))
		if _, err := EncodeEntries(bw, aug.idx, aug.val); err != nil {
			return err
		}
	}

	writeU(uint64(len(h.rungs)))
	for _, r := range h.rungs {
		writeF(r.Bound)
		writeF(r.Achieved)
		writeU(uint64(r.Cursor))
		writeU(uint64(r.Cardinality))
		writeU(uint64(r.Bytes))
		writeU(uint64(r.Level))
	}
	return bw.Flush()
}

// encodedLen returns the number of bytes Encode writes, field by field in
// its order.
func (h *Hierarchy) encodedLen() int {
	u := func(v int) int { return uvarintLen(uint64(v)) }
	dims := h.levelDims[0]
	n := len(fileMagic) + u(h.opts.Levels) + u(h.opts.Decimation) + u(int(h.opts.Metric)) +
		u(len(h.opts.Bounds)) + 8*len(h.opts.Bounds) + u(len(dims)) + u(h.origLen) + 8 +
		u(h.base.Len()) + 8*h.base.Len() + u(len(h.augs)) + u(len(h.rungs))
	for _, d := range dims {
		n += u(d)
	}
	for _, aug := range h.augs {
		n += u(len(aug.idx))
		for _, ix := range aug.idx {
			n += entrySize(ix)
		}
	}
	for _, r := range h.rungs {
		n += 16 + u(r.Cursor) + u(r.Cardinality) + uvarintLen(uint64(r.Bytes)) + u(r.Level)
	}
	return n
}

// Decode reads a hierarchy previously written by Encode. When r is
// already a *bufio.Reader it is used directly (no read-ahead beyond the
// hierarchy's own bytes is introduced), so hierarchies can be decoded
// back-to-back from one stream.
// A count the bytes left in r cannot hold is refused before allocating,
// when r says how many are left (a Len method, as *bytes.Reader has);
// from any other reader the base and columns grow as their bytes arrive.
func Decode(r io.Reader) (*Hierarchy, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	left := func() int { return -1 }
	if lr, ok := r.(interface{ Len() int }); ok {
		left = func() int { return lr.Len() + br.Buffered() }
	}
	magic, err := br.Peek(len(fileMagic))
	if err != nil {
		return nil, fmt.Errorf("refactor: reading magic: %w", err)
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("refactor: bad magic %q", magic)
	}
	_, _ = br.Discard(len(fileMagic)) // peeked: cannot fail
	var firstErr error
	readU := func() uint64 {
		v, err := binary.ReadUvarint(br)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	var fbuf [8]byte
	readF := func() float64 {
		if _, err := io.ReadFull(br, fbuf[:]); err != nil && firstErr == nil {
			firstErr = err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(fbuf[:]))
	}

	h := &Hierarchy{}
	h.opts.Levels = int(readU())
	h.opts.Decimation = int(readU())
	h.opts.Metric = errmetric.Kind(readU())
	nb := int(readU())
	if firstErr != nil {
		return nil, firstErr
	}
	if _, err := roomFor(nb, 8, left()); nb < 0 || nb > 1<<20 || err != nil {
		return nil, fmt.Errorf("refactor: implausible bound count %d", nb)
	}
	h.opts.Bounds = make([]float64, nb)
	for i := range h.opts.Bounds {
		h.opts.Bounds[i] = readF()
	}

	rank := int(readU())
	if firstErr != nil {
		return nil, firstErr
	}
	if rank <= 0 || rank > 8 {
		return nil, fmt.Errorf("refactor: implausible rank %d", rank)
	}
	if h.opts.Levels < 1 || h.opts.Levels > 64 {
		return nil, fmt.Errorf("refactor: implausible level count %d", h.opts.Levels)
	}
	if h.opts.Decimation < 2 || h.opts.Decimation > 1<<16 {
		return nil, fmt.Errorf("refactor: implausible decimation %d", h.opts.Decimation)
	}
	dims := make([]int, rank)
	points := 1
	for i := range dims {
		dims[i] = int(readU())
		if dims[i] <= 0 || dims[i] > 1<<24 {
			return nil, fmt.Errorf("refactor: implausible dimension %d", dims[i])
		}
		points *= dims[i]
		if points > 1<<28 {
			return nil, fmt.Errorf("refactor: grid too large (> 2^28 points)")
		}
	}
	h.origLen = int(readU())
	if h.origLen != points {
		return nil, fmt.Errorf("refactor: origLen %d does not match dims %v", h.origLen, dims)
	}
	h.baseAcc = readF()

	// Rebuild level dims from the original dims.
	h.levelDims = make([][]int, h.opts.Levels)
	h.levelDims[0] = dims
	for l := 1; l < h.opts.Levels; l++ {
		h.levelDims[l] = CoarseDims(h.levelDims[l-1], h.opts.Decimation)
	}

	baseLen := int(readU())
	if firstErr != nil {
		return nil, firstErr
	}
	if want := tensor.Size(h.levelDims[len(h.levelDims)-1]); baseLen != want {
		return nil, fmt.Errorf("refactor: base length %d does not match dims (want %d)", baseLen, want)
	}
	room, err := roomFor(baseLen, 8, left())
	if err != nil {
		return nil, fmt.Errorf("refactor: base: %w", err)
	}
	baseData := make([]float64, 0, room)
	for range baseLen {
		if baseData = append(baseData, readF()); firstErr != nil {
			return nil, firstErr
		}
	}
	h.base = tensor.FromData(baseData, h.levelDims[len(h.levelDims)-1]...)

	nAugs := int(readU())
	if firstErr != nil {
		return nil, firstErr
	}
	if nAugs != h.opts.Levels-1 {
		return nil, fmt.Errorf("refactor: aug level count %d, want %d", nAugs, h.opts.Levels-1)
	}
	h.augs = make([]stream, nAugs)
	// One bit per grid point: level 0 is the largest and sizes it.
	var seen []uint64
	for l := range h.augs {
		n := int(readU())
		if firstErr != nil {
			return nil, firstErr
		}
		levelLen := tensor.Size(h.levelDims[l])
		if n < 0 || n > levelLen {
			return nil, fmt.Errorf("refactor: level %d entry count %d exceeds grid size %d", l, n, levelLen)
		}
		aug, err := decodeEntries(br, n, levelLen, left())
		if err != nil {
			return nil, fmt.Errorf("refactor: level %d: %w", l, err)
		}
		// Recompose scatters a level's entries in parallel, so an index
		// must not repeat within a level.
		if words := (levelLen + 63) / 64; seen == nil {
			seen = make([]uint64, words)
		} else {
			seen = seen[:words]
			clear(seen)
		}
		for i, ix := range aug.idx {
			word, bit := ix/64, uint64(1)<<(ix%64)
			if seen[word]&bit != 0 {
				return nil, fmt.Errorf("refactor: level %d entry %d repeats index %d", l, i, ix)
			}
			seen[word] |= bit
		}
		h.augs[l] = aug
	}

	h.index()

	nRungs := int(readU())
	if firstErr != nil {
		return nil, firstErr
	}
	// A rung takes two floats and four varints.
	if _, err := roomFor(nRungs, 8+8+4, left()); nRungs < 0 || nRungs > 1<<20 || err != nil {
		return nil, fmt.Errorf("refactor: implausible rung count %d", nRungs)
	}
	h.rungs = make([]Rung, nRungs)
	for i := range h.rungs {
		h.rungs[i] = Rung{
			Bound:       readF(),
			Achieved:    readF(),
			Cursor:      int(readU()),
			Cardinality: int(readU()),
			Bytes:       int64(readU()),
			Level:       int(readU()),
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	// The ladder is the one part callers turn straight into cursors
	// (CursorForBound → Recompose/Segments/staging), so it must address the
	// stream that was actually decoded.
	prev := 0
	for i, r := range h.rungs {
		if r.Cursor < prev || r.Cursor > h.TotalEntries() {
			return nil, fmt.Errorf("refactor: rung %d cursor %d outside [%d,%d]", i, r.Cursor, prev, h.TotalEntries())
		}
		if r.Cardinality != r.Cursor-prev {
			return nil, fmt.Errorf("refactor: rung %d cardinality %d, want %d", i, r.Cardinality, r.Cursor-prev)
		}
		if r.Level < 0 || r.Level >= h.opts.Levels {
			return nil, fmt.Errorf("refactor: rung %d level %d outside [0,%d)", i, r.Level, h.opts.Levels)
		}
		if r.Bytes < 0 {
			return nil, fmt.Errorf("refactor: rung %d has negative size %d", i, r.Bytes)
		}
		prev = r.Cursor
	}
	return h, nil
}
