package refactor

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"testing"
)

// fuzz seeds: a valid hierarchy, edits of it, and garbage.
func validHierarchyBytes(tb testing.TB) []byte {
	tb.Helper()
	h, err := Decompose(smoothField(17, 1), Options{Levels: 3, Bounds: []float64{0.1}})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// encodeWithRungs re-encodes the valid hierarchy after edit has rewritten
// its ladder in place.
func encodeWithRungs(tb testing.TB, edit func(h *Hierarchy)) []byte {
	tb.Helper()
	h, err := Decode(bytes.NewReader(validHierarchyBytes(tb)))
	if err != nil {
		tb.Fatal(err)
	}
	edit(h)
	var buf bytes.Buffer
	if err := h.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// outOfRangeRungBytes is the valid hierarchy with its first rung pointing
// five entries past the end of the stream.
func outOfRangeRungBytes(tb testing.TB) []byte {
	return encodeWithRungs(tb, func(h *Hierarchy) { h.rungs[0].Cursor = h.TotalEntries() + 5 })
}

// repeatedIndexBytes is the valid hierarchy with its level-0 stream naming
// its first grid point twice.
func repeatedIndexBytes(tb testing.TB) []byte {
	return encodeWithRungs(tb, func(h *Hierarchy) { h.augs[0].idx[1] = h.augs[0].idx[0] })
}

// truncatedHeader is a header for a 16384² grid at one or two levels
// that ends where the base's bytes begin: the base it announces is all
// 2²⁸ points at one level, 8192² at two.
func truncatedHeader(levels int) []byte {
	base := uint64(1 << 28)
	if levels == 2 {
		base = 8192 * 8192
	}
	b := []byte(fileMagic)
	// levels, decimation, metric, bound count, rank, dims, origLen
	for _, v := range []uint64{uint64(levels), 2, 0, 0, 2, 16384, 16384, 1 << 28} {
		b = binary.AppendUvarint(b, v)
	}
	b = binary.LittleEndian.AppendUint64(b, 0) // baseAcc
	return binary.AppendUvarint(b, base)
}

// boundsHeader is a header that announces 2²⁰ bounds and ends there.
func boundsHeader() []byte {
	b := []byte(fileMagic)
	for _, v := range []uint64{2, 2, 0, 1 << 20} {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestDecodeTruncatedHeaderAllocatesLittle: a header announcing a base
// of 2²⁸ or 8192² points, or 2²⁰ bounds, and none of their bytes, is an
// error having allocated under 1 MiB from a bytes.Reader, which says how
// much is left, and not much more than one growStep of floats from a
// reader that cannot say.
func TestDecodeTruncatedHeaderAllocatesLittle(t *testing.T) {
	allocated := func(r io.Reader) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(r)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("a truncated header decoded")
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, data := range [][]byte{truncatedHeader(1), truncatedHeader(2), boundsHeader()} {
		if got := allocated(bytes.NewReader(data)); got >= 1<<20 {
			t.Errorf("%q: Decode allocated %d bytes", data, got)
		}
		if got := allocated(plainReader{bytes.NewReader(data)}); got >= 8*growStep+1<<20 {
			t.Errorf("%q, a reader without Len: Decode allocated %d bytes", data, got)
		}
	}
}

// plainReader hides a reader's Len, so Decode cannot tell how much is left.
type plainReader struct{ io.Reader }

// FuzzDecode: Decode must never panic or over-allocate on adversarial
// input — it either returns a hierarchy or an error. What it accepts
// names each grid point at most once per level, so Recompose's parallel
// scatter writes disjoint points and gives the same bits at any worker
// count.
func FuzzDecode(f *testing.F) {
	valid := validHierarchyBytes(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("TNGO1\n"))
	f.Add(valid[:len(valid)/2])
	f.Add(outOfRangeRungBytes(f))
	// Corrupt single bytes at strategic offsets.
	for _, off := range []int{6, 7, 8, 20, len(valid) / 2} {
		c := append([]byte(nil), valid...)
		if off < len(c) {
			c[off] ^= 0xff
			f.Add(c)
		}
	}
	f.Add(repeatedIndexBytes(f))
	f.Add(truncatedHeader(2))
	f.Add(truncatedHeader(1))
	f.Add(boundsHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		for l, aug := range h.augs {
			seen := map[uint32]bool{}
			for _, ix := range aug.idx {
				if seen[ix] {
					t.Fatalf("level %d: index %d accepted twice", l, ix)
				}
				seen[ix] = true
			}
		}
		// A successfully decoded hierarchy must be internally usable.
		_ = h.Recompose(0)
		for _, r := range h.Rungs() {
			_ = h.Recompose(r.Cursor)
		}
		checkAppendSegments(t, h)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		one := h.Recompose(h.TotalEntries()).Data()
		runtime.GOMAXPROCS(2)
		for i, v := range h.Recompose(h.TotalEntries()).Data() {
			if math.Float64bits(v) != math.Float64bits(one[i]) {
				t.Fatalf("point %d: %v at two workers, %v at one", i, v, one[i])
			}
		}
	})
}

// TestFuzzSeedsAsRegressions runs the seed corpus deterministically in a
// regular `go test` invocation (the fuzz engine itself only runs under
// -fuzz).
func TestFuzzSeedsAsRegressions(t *testing.T) {
	valid := validHierarchyBytes(t)
	if _, err := Decode(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid hierarchy rejected: %v", err)
	}
	for _, off := range []int{6, 7, 8, 20, len(valid) / 2} {
		c := append([]byte(nil), valid...)
		if off < len(c) {
			c[off] ^= 0xff
			// Either decodes or errors; must not panic.
			_, _ = Decode(bytes.NewReader(c))
		}
	}
}
