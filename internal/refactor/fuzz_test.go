package refactor

import (
	"bytes"
	"testing"
)

// fuzz seeds: a valid hierarchy, a valid bundle, and garbage.
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

func validBundleBytes(tb testing.TB) []byte {
	tb.Helper()
	b, err := DecomposeBundle([]Var{
		{Name: "a", Data: smoothField(17, 2)},
		{Name: "b", Data: smoothField(17, 3)},
	}, Options{Levels: 2})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecode: Decode must never panic or over-allocate on adversarial
// input — it either returns a hierarchy or an error.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully decoded hierarchy must be internally usable.
		_ = h.Recompose(0)
		for _, r := range h.Rungs() {
			_ = h.Recompose(r.Cursor)
		}
		checkAppendSegments(t, h)
	})
}

// FuzzDecodeBundle: same contract for bundle streams.
func FuzzDecodeBundle(f *testing.F) {
	valid := validBundleBytes(f)
	f.Add(valid)
	f.Add([]byte("TNGB1\n"))
	f.Add(valid[:len(valid)*2/3])
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBundle(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = b.Names()
		_ = b.TotalBytes()
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
	vb := validBundleBytes(t)
	if _, err := DecodeBundle(bytes.NewReader(vb)); err != nil {
		t.Fatalf("valid bundle rejected: %v", err)
	}
}
