package refactor

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"tango/internal/errmetric"
	"tango/internal/par"
	"tango/internal/tensor"
)

// smoothField builds a 2D field with large-scale structure plus detail,
// representative of analysis output.
func smoothField(n int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(n, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			v := math.Sin(4*math.Pi*float64(r)/float64(n))*math.Cos(2*math.Pi*float64(c)/float64(n)) +
				0.3*math.Sin(16*math.Pi*float64(c)/float64(n)) +
				0.05*rng.NormFloat64()
			t.Set(v, r, c)
		}
	}
	return t
}

func mustDecompose(t *testing.T, orig *tensor.Tensor, opts Options) *Hierarchy {
	t.Helper()
	h, err := Decompose(orig, opts)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestFullRecompositionIsLossless(t *testing.T) {
	orig := smoothField(33, 1)
	h := mustDecompose(t, orig, Options{Levels: 4})
	rec := h.Recompose(h.TotalEntries())
	// Lossless up to IEEE rounding of (a−b)+b.
	if d := rec.AbsDiffMax(orig); d > 1e-12*orig.Range() {
		t.Fatalf("full recomposition not exact: max diff %v", d)
	}
}

func TestBaseOnlyRecomposition(t *testing.T) {
	orig := smoothField(33, 2)
	h := mustDecompose(t, orig, Options{Levels: 3})
	rec := h.Recompose(0)
	if !sameInts(rec.Dims(), orig.Dims()) {
		t.Fatalf("recomposed dims %v", rec.Dims())
	}
	// Base-only must equal iterated prolongation of the base.
	want := h.Base().Clone()
	want = Prolongate(want, h.levelDims[1], 2)
	want = Prolongate(want, h.levelDims[0], 2)
	if rec.AbsDiffMax(want) != 0 {
		t.Fatal("base-only recomposition differs from prolongated base")
	}
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestErrorDecreasesWithCursor(t *testing.T) {
	orig := smoothField(33, 3)
	h := mustDecompose(t, orig, Options{Levels: 4})
	total := h.TotalEntries()
	prev := math.Inf(1)
	for _, frac := range []float64{0, 0.1, 0.25, 0.5, 0.75, 1} {
		acc := h.Achieved(orig, int(frac*float64(total)))
		if acc > prev+1e-12 {
			t.Fatalf("error increased at fraction %v: %v > %v", frac, acc, prev)
		}
		prev = acc
	}
}

func TestLadderSatisfiesBoundsNRMSE(t *testing.T) {
	orig := smoothField(65, 4)
	bounds := []float64{0.1, 0.03, 0.01, 0.003, 0.001}
	h := mustDecompose(t, orig, Options{Levels: 4, Metric: errmetric.NRMSE, Bounds: bounds})
	rungs := h.Rungs()
	if len(rungs) != len(bounds) {
		t.Fatalf("rungs = %d", len(rungs))
	}
	prevCursor := -1
	for i, r := range rungs {
		if !errmetric.NRMSE.Satisfies(r.Achieved, r.Bound) {
			t.Errorf("rung %d: achieved %v does not satisfy %v", i, r.Achieved, r.Bound)
		}
		// Re-measure to confirm the recorded accuracy.
		if acc := h.Achieved(orig, r.Cursor); !errmetric.NRMSE.Satisfies(acc, r.Bound) {
			t.Errorf("rung %d: re-measured %v violates %v", i, acc, r.Bound)
		}
		if r.Cursor < prevCursor {
			t.Errorf("rung %d cursor %d not monotone", i, r.Cursor)
		}
		prevCursor = r.Cursor
	}
	// Tighter bounds need at least as many entries.
	for i := 1; i < len(rungs); i++ {
		if rungs[i].Cursor < rungs[i-1].Cursor {
			t.Fatal("ladder not monotone")
		}
	}
}

func TestLadderSatisfiesBoundsPSNR(t *testing.T) {
	orig := smoothField(65, 5)
	bounds := []float64{30, 40, 50, 60}
	h := mustDecompose(t, orig, Options{Levels: 4, Metric: errmetric.PSNR, Bounds: bounds})
	for i, r := range h.Rungs() {
		if !errmetric.PSNR.Satisfies(r.Achieved, r.Bound) {
			t.Errorf("rung %d: %v dB does not satisfy %v dB", i, r.Achieved, r.Bound)
		}
	}
}

func TestMinimalityOfLadderCursor(t *testing.T) {
	orig := smoothField(33, 6)
	h := mustDecompose(t, orig, Options{Levels: 3, Metric: errmetric.NRMSE, Bounds: []float64{0.01}})
	r := h.Rungs()[0]
	if r.Cursor == 0 {
		t.Skip("base already satisfies the bound; nothing to minimize")
	}
	// One fewer entry must violate the bound (true when error is locally
	// monotone, which magnitude ordering gives us here).
	if acc := h.Achieved(orig, r.Cursor-1); errmetric.NRMSE.Satisfies(acc, r.Bound) &&
		math.Abs(acc-r.Bound) > r.Bound*0.01 {
		t.Fatalf("cursor %d not minimal: %v still well under %v", r.Cursor, acc, r.Bound)
	}
}

func TestBoundsValidation(t *testing.T) {
	orig := smoothField(17, 7)
	// Wrong order for NRMSE (tight -> loose).
	if _, err := Decompose(orig, Options{Levels: 3, Metric: errmetric.NRMSE, Bounds: []float64{0.01, 0.1}}); err == nil {
		t.Fatal("unordered NRMSE bounds accepted")
	}
	// Wrong order for PSNR.
	if _, err := Decompose(orig, Options{Levels: 3, Metric: errmetric.PSNR, Bounds: []float64{50, 30}}); err == nil {
		t.Fatal("unordered PSNR bounds accepted")
	}
	// Non-positive NRMSE bound.
	if _, err := Decompose(orig, Options{Levels: 3, Metric: errmetric.NRMSE, Bounds: []float64{0}}); err == nil {
		t.Fatal("zero NRMSE bound accepted")
	}
	// NaN bound.
	if _, err := Decompose(orig, Options{Levels: 3, Bounds: []float64{math.NaN()}}); err == nil {
		t.Fatal("NaN bound accepted")
	}
	// Bad decimation.
	if _, err := Decompose(orig, Options{Levels: 3, Decimation: 1}); err == nil {
		t.Fatal("decimation 1 accepted")
	}
}

func TestLevelsClampedToGrid(t *testing.T) {
	orig := tensor.FromData([]float64{1, 2, 3, 4, 5}, 5)
	h := mustDecompose(t, orig, Options{Levels: 50})
	// 5 -> 3 -> 2 -> 1: at most 4 levels.
	if h.Levels() > 4 {
		t.Fatalf("levels = %d", h.Levels())
	}
	rec := h.Recompose(h.TotalEntries())
	if rec.AbsDiffMax(orig) != 0 {
		t.Fatal("clamped hierarchy not lossless")
	}
}

func TestAugsSortedByMagnitude(t *testing.T) {
	orig := smoothField(33, 8)
	h := mustDecompose(t, orig, Options{Levels: 3})
	for l, aug := range h.augs {
		for i := 1; i < len(aug.val); i++ {
			if math.Abs(aug.val[i]) > math.Abs(aug.val[i-1]) {
				t.Fatalf("level %d entries not sorted at %d", l, i)
			}
		}
	}
}

func TestCoarseLevelsRetrievedFirst(t *testing.T) {
	orig := smoothField(33, 9)
	h := mustDecompose(t, orig, Options{Levels: 4})
	// order must be L-2, ..., 0
	want := []int{2, 1, 0}
	for i, l := range h.order {
		if l != want[i] {
			t.Fatalf("order = %v", h.order)
		}
	}
	// LevelOfCursor: cursor 0 -> base level (L-1).
	if got := h.LevelOfCursor(0); got != 3 {
		t.Fatalf("LevelOfCursor(0) = %d", got)
	}
	// A cursor inside the first block is at level L-2.
	if h.cum[0] > 0 {
		if got := h.LevelOfCursor(1); got != 2 {
			t.Fatalf("LevelOfCursor(1) = %d", got)
		}
	}
	// Last cursor is at level 0.
	if got := h.LevelOfCursor(h.TotalEntries()); got != 0 {
		t.Fatalf("LevelOfCursor(total) = %d", got)
	}
}

func TestSegmentsPartitionRange(t *testing.T) {
	orig := smoothField(33, 10)
	h := mustDecompose(t, orig, Options{Levels: 4})
	total := h.TotalEntries()
	segs := h.Segments(0, total)
	var count int
	var bytes int64
	for _, s := range segs {
		count += s.End - s.Start
		bytes += s.Bytes
	}
	if count != total {
		t.Fatalf("segments cover %d of %d entries", count, total)
	}
	if bytes != h.TotalAugBytes() {
		t.Fatalf("segment bytes %d != total %d", bytes, h.TotalAugBytes())
	}
	// Split ranges must add up.
	mid := total / 3
	if h.BytesForRange(0, mid)+h.BytesForRange(mid, total) != h.TotalAugBytes() {
		t.Fatal("byte ranges not additive")
	}
	if len(h.Segments(5, 5)) != 0 {
		t.Fatal("empty range should have no segments")
	}
}

// checkAppendSegments: for every [from, to) — or a stride of them on a
// large hierarchy — AppendSegments keeps dst's prefix, appends exactly
// what Segments returns, and the appended runs cover to-from entries
// priced as LevelBytes prices them, BytesForRange being their sum.
func checkAppendSegments(tb testing.TB, h *Hierarchy) {
	tb.Helper()
	total := h.TotalEntries()
	step := max(1, total/96)
	sentinel := Segment{Level: -1, Start: -2, End: -3, Bytes: -4}
	var buf [4]Segment // small on purpose: a deep range outgrows it
	for from := 0; from <= total; from += step {
		for to := from; to <= total; to += step {
			want := h.Segments(from, to)
			buf[0] = sentinel
			got := h.AppendSegments(buf[:1], from, to)
			if got[0] != sentinel || !slices.Equal(got[1:], want) {
				tb.Fatalf("AppendSegments(%d,%d) = %+v, want prefix + %+v", from, to, got, want)
			}
			n, bytes := 0, int64(0)
			for _, s := range want {
				n, bytes = n+s.End-s.Start, bytes+s.Bytes
				if s.Bytes != h.LevelBytes(s.Level, s.Start, s.End) {
					tb.Fatalf("segment %+v of [%d,%d) priced %d by LevelBytes", s, from, to, h.LevelBytes(s.Level, s.Start, s.End))
				}
			}
			if n != to-from {
				tb.Fatalf("segments of [%d,%d) cover %d entries", from, to, n)
			}
			if got := h.BytesForRange(from, to); got != bytes {
				tb.Fatalf("BytesForRange(%d,%d) = %d, its segments sum to %d", from, to, got, bytes)
			}
		}
	}
}

// BytesForRange and TotalAugBytes sum the prefix sums without building
// segments, so a step or a summary pricing a range allocates nothing.
func TestBytesForRangeAllocatesNothing(t *testing.T) {
	h := mustDecompose(t, smoothField(33, 10), Options{Levels: 5})
	total := h.TotalEntries()
	var sink int64
	if n := testing.AllocsPerRun(100, func() {
		sink += h.BytesForRange(total/5, 4*total/5) + h.TotalAugBytes()
	}); n != 0 {
		t.Fatalf("BytesForRange and TotalAugBytes allocate %v objects, want 0", n)
	}
	if sink <= 0 {
		t.Fatal("no bytes priced")
	}
}

func TestAppendSegmentsMatchesSegments(t *testing.T) {
	checkAppendSegments(t, mustDecompose(t, smoothField(9, 12), Options{Levels: 3}))  // every range
	checkAppendSegments(t, mustDecompose(t, smoothField(33, 10), Options{Levels: 5})) // strided; 4 segments outgrow buf
}

func TestCursorForFraction(t *testing.T) {
	orig := smoothField(17, 11)
	h := mustDecompose(t, orig, Options{Levels: 3})
	if h.CursorForFraction(0) != 0 || h.CursorForFraction(-1) != 0 {
		t.Fatal("fraction 0")
	}
	if h.CursorForFraction(1) != h.TotalEntries() || h.CursorForFraction(2) != h.TotalEntries() {
		t.Fatal("fraction 1")
	}
	half := h.CursorForFraction(0.5)
	if half <= 0 || half >= h.TotalEntries() {
		t.Fatalf("fraction 0.5 -> %d", half)
	}
}

func TestDoFFraction(t *testing.T) {
	orig := smoothField(33, 12)
	h := mustDecompose(t, orig, Options{Levels: 3})
	f0 := h.DoFFraction(0)
	if f0 <= 0 || f0 >= 1 {
		t.Fatalf("base DoF fraction = %v", f0)
	}
	fFull := h.DoFFraction(h.TotalEntries())
	// Base + all entries ≈ all points (entries exclude exact zeros).
	if fFull > 1.0001 || fFull < 0.9 {
		t.Fatalf("full DoF fraction = %v", fFull)
	}
	if !(f0 < fFull) {
		t.Fatal("DoF not increasing")
	}
}

func TestCursorForBound(t *testing.T) {
	orig := smoothField(33, 13)
	h := mustDecompose(t, orig, Options{Levels: 3, Bounds: []float64{0.1, 0.01}})
	if _, err := h.CursorForBound(0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.CursorForBound(0.5); err == nil {
		t.Fatal("unknown bound accepted")
	}
}

func TestLevelsForRatio(t *testing.T) {
	// 2D, d=2: each level shrinks by 4. ratio 16 -> 2 aug levels + base.
	if got := LevelsForRatio(16, 2, 2); got != 3 {
		t.Fatalf("LevelsForRatio(16,2,2) = %d", got)
	}
	if got := LevelsForRatio(1, 2, 2); got != 1 {
		t.Fatalf("ratio 1 -> %d", got)
	}
	// 8192 in 2D: log4(8192) = 6.5 -> 7 aug levels (rounds to nearest).
	if got := LevelsForRatio(8192, 2, 2); got < 7 || got > 8 {
		t.Fatalf("LevelsForRatio(8192,2,2) = %d", got)
	}
	// Monotone in ratio.
	if !(LevelsForRatio(512, 2, 2) <= LevelsForRatio(8192, 2, 2)) {
		t.Fatal("not monotone")
	}
}

func TestBaseAccuracyRecorded(t *testing.T) {
	orig := smoothField(33, 14)
	h := mustDecompose(t, orig, Options{Levels: 4})
	if got := h.Achieved(orig, 0); got != h.BaseAccuracy() {
		t.Fatalf("base accuracy %v vs recorded %v", got, h.BaseAccuracy())
	}
	if h.BaseAccuracy() <= 0 {
		t.Fatalf("base accuracy = %v (decimated base should not be exact)", h.BaseAccuracy())
	}
}

func TestCodecRoundTrip(t *testing.T) {
	orig := smoothField(33, 15)
	h := mustDecompose(t, orig, Options{Levels: 3, Bounds: []float64{0.05, 0.01}})
	var buf bytes.Buffer
	if err := h.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	h2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2.TotalEntries() != h.TotalEntries() {
		t.Fatalf("entries %d vs %d", h2.TotalEntries(), h.TotalEntries())
	}
	if h2.BaseAccuracy() != h.BaseAccuracy() {
		t.Fatal("base accuracy mismatch")
	}
	if len(h2.Rungs()) != len(h.Rungs()) {
		t.Fatal("rung count mismatch")
	}
	for i := range h.Rungs() {
		if h.Rungs()[i] != h2.Rungs()[i] {
			t.Fatalf("rung %d mismatch: %+v vs %+v", i, h.Rungs()[i], h2.Rungs()[i])
		}
	}
	a := h.Recompose(h.TotalEntries())
	b := h2.Recompose(h2.TotalEntries())
	if a.AbsDiffMax(b) != 0 {
		t.Fatal("recomposition differs after round trip")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not a tango file"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated valid prefix.
	orig := smoothField(17, 16)
	h := mustDecompose(t, orig, Options{Levels: 3})
	var buf bytes.Buffer
	if err := h.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Decode(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated input accepted")
	}
}

// TestDecodeRejectsRepeatedIndex: a level that names a grid point twice
// is a decode error naming the level and the index, not a race in
// Recompose's parallel scatter.
func TestDecodeRejectsRepeatedIndex(t *testing.T) {
	h, err := Decode(bytes.NewReader(validHierarchyBytes(t)))
	if err != nil {
		t.Fatal(err)
	}
	for l, aug := range h.augs {
		last := len(aug.idx) - 1
		if last < 1 {
			continue
		}
		// The repeat is the stream's last entry: every check before it passes.
		idx := aug.idx[0]
		data := encodeWithRungs(t, func(h *Hierarchy) { h.augs[l].idx[last] = idx })
		_, err := Decode(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("level %d: index %d twice accepted", l, idx)
		}
		want := fmt.Sprintf("level %d entry %d repeats index %d", l, last, idx)
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("level %d: error %q does not say %q", l, err, want)
		}
	}
}

// TestDecodeRejectsOutOfRangeRung: a ladder that does not address the
// decoded stream is a decode error, not a panic in Recompose/Segments
// when a caller follows CursorForBound.
func TestDecodeRejectsOutOfRangeRung(t *testing.T) {
	if _, err := Decode(bytes.NewReader(outOfRangeRungBytes(t))); err == nil {
		t.Error("rung cursor past the end of the stream accepted")
	}
	twoRungs := func(h *Hierarchy) {
		total := h.TotalEntries()
		h.rungs = []Rung{
			{Bound: 0.1, Cursor: total / 2, Cardinality: total / 2},
			{Bound: 0.01, Cursor: total, Cardinality: total - total/2},
		}
	}
	if _, err := Decode(bytes.NewReader(encodeWithRungs(t, twoRungs))); err != nil {
		t.Fatalf("consistent two-rung ladder rejected: %v", err)
	}
	for name, edit := range map[string]func(h *Hierarchy){
		"decreasing cursors": func(h *Hierarchy) { h.rungs[1].Cursor = h.rungs[0].Cursor - 1 },
		"cardinality":        func(h *Hierarchy) { h.rungs[1].Cardinality++ },
		"level":              func(h *Hierarchy) { h.rungs[0].Level = h.Levels() },
		"negative bytes":     func(h *Hierarchy) { h.rungs[0].Bytes = -1 },
	} {
		data := encodeWithRungs(t, func(h *Hierarchy) { twoRungs(h); edit(h) })
		if _, err := Decode(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: inconsistent ladder accepted", name)
		}
	}
}

// TestEntryCodecRoundTrip: entries come back as they went, and an index
// not below the level size is refused — 2³²+5 as itself, not narrowed
// to 5.
func TestEntryCodecRoundTrip(t *testing.T) {
	entries := columns([]entry{{0, 1.5}, {1000000, -2.25}, {7, 0}, {42, math.Pi}})
	var buf bytes.Buffer
	n, err := EncodeEntries(&buf, entries.idx, entries.val)
	if err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != n {
		t.Fatalf("reported %d wrote %d", n, buf.Len())
	}
	enc := slices.Clone(buf.Bytes())
	got, err := decodeEntries(&buf, 4, 1000001, buf.Len())
	if err != nil {
		t.Fatal(err)
	}
	sameEntries(t, "round trip", got, entries.entries())
	if _, err := decodeEntries(bytes.NewReader(enc), 4, 1000000, len(enc)); err == nil ||
		!strings.Contains(err.Error(), "entry 1 index 1000000 outside") {
		t.Fatalf("an index equal to the level size: error %v", err)
	}
	wide := binary.AppendUvarint(nil, 1<<32+5)
	wide = binary.LittleEndian.AppendUint64(wide, math.Float64bits(1))
	if _, err := decodeEntries(bytes.NewReader(wide), 1, 6, len(wide)); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprintf("index %d outside", uint64(1<<32+5))) {
		t.Fatalf("index 2^32+5 in a level of 6 points: error %v", err)
	}
}

// byteAtATime hides a reader's type so decodeEntries takes the byte-wise
// path for every entry.
type byteAtATime struct{ io.ByteReader }

// TestDecodeEntriesBufferedMatchesByteWise holds the in-buffer parse to
// the byte-wise loop: same entries, and for every truncation point, an
// overflowing index and an index past the level size the same error
// naming the same entry, at buffer sizes from "never a whole entry
// buffered" to "the whole stream at once". What follows the entries in
// the stream must still be there afterwards.
func TestDecodeEntriesBufferedMatchesByteWise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	es := make([]entry, 700)
	for i := range es {
		// Index widths from one varint byte to five.
		es[i] = entry{uint32(rng.Uint64() >> uint(32+rng.Intn(32))), rng.NormFloat64()}
	}
	entries := columns(es)
	const size = 1 << 32
	var enc bytes.Buffer
	if _, err := EncodeEntries(&enc, entries.idx, entries.val); err != nil {
		t.Fatal(err)
	}
	const trailer = "next section"
	whole := append(enc.Bytes(), trailer...)

	at := 0 // start of entry 350's index
	for _, ix := range entries.idx[:350] {
		at += entrySize(ix)
	}
	overflow := append(slices.Clone(whole[:at]), bytes.Repeat([]byte{0xff}, 11)...)
	outside := binary.AppendUvarint(slices.Clone(whole[:at]), size+5)
	outside = append(outside, whole[at+entrySize(entries.idx[350]):]...)

	streams := map[string][]byte{"whole": whole, "overflowing index": overflow, "index past the grid": outside}
	for cut := 0; cut < enc.Len(); cut += 1 + cut/40 {
		streams[fmt.Sprintf("cut at %d", cut)] = whole[:cut]
	}
	for name, stream := range streams {
		want, wantErr := decodeEntries(byteAtATime{bytes.NewReader(stream)}, len(es), size, -1)
		if (name == "whole") != (wantErr == nil) {
			t.Fatalf("%s: byte-wise error %v", name, wantErr)
		}
		for _, bufSize := range []int{16, 17, 18, 19, 37, 4096, 1 << 16} {
			br := bufio.NewReaderSize(bytes.NewReader(stream), bufSize)
			got, err := decodeEntries(br, len(es), size, -1)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s, buffer %d: error %v, byte-wise %v", name, bufSize, err, wantErr)
			}
			if !slices.Equal(got.idx, want.idx) || !slices.Equal(got.val, want.val) {
				t.Fatalf("%s, buffer %d: entries differ from the byte-wise decode", name, bufSize)
			}
			if err == nil {
				rest, _ := io.ReadAll(br)
				if string(rest) != trailer {
					t.Fatalf("%s, buffer %d: %q left in the stream, want %q", name, bufSize, rest, trailer)
				}
			}
		}
	}
}

// TestDecodeEntriesGrowsAsBytesArrive: from a reader that cannot say how
// much is left, a stream longer than growStep decodes whole through the
// grown columns, and a count far past its end fails having allocated
// little more than what arrived, not what the count claims.
func TestDecodeEntriesGrowsAsBytesArrive(t *testing.T) {
	es := make([]entry, growStep+4321)
	for i := range es {
		es[i] = entry{uint32(i), float64(i) / 3}
	}
	entries := columns(es)
	var enc bytes.Buffer
	if _, err := EncodeEntries(&enc, entries.idx, entries.val); err != nil {
		t.Fatal(err)
	}
	n := len(es)
	got, err := decodeEntries(bufio.NewReader(bytes.NewReader(enc.Bytes())), n, n, -1)
	if err != nil {
		t.Fatal(err)
	}
	sameEntries(t, "grown columns", got, es)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = decodeEntries(bufio.NewReader(bytes.NewReader(enc.Bytes())), 64*n, 64*n, -1)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("64 times the entries decoded")
	}
	if a := after.TotalAlloc - before.TotalAlloc; a > 12*4*uint64(n) {
		t.Fatalf("%d entries arrived of %d claimed: %d bytes allocated", n, 64*n, a)
	}
}

func TestLosslessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 9 + rng.Intn(24)
		orig := tensor.New(n, n)
		for i := range orig.Data() {
			orig.Data()[i] = rng.NormFloat64() * 100
		}
		h, err := Decompose(orig, Options{Levels: 2 + rng.Intn(3)})
		if err != nil {
			return false
		}
		return h.Recompose(h.TotalEntries()).AbsDiffMax(orig) <= 1e-11*orig.Range()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicDecomposition(t *testing.T) {
	orig := smoothField(33, 17)
	h1 := mustDecompose(t, orig, Options{Levels: 3, Bounds: []float64{0.01}})
	h2 := mustDecompose(t, orig, Options{Levels: 3, Bounds: []float64{0.01}})
	if h1.Rungs()[0] != h2.Rungs()[0] {
		t.Fatal("nondeterministic ladder")
	}
	for l := range h1.augs {
		if !slices.Equal(h1.augs[l].idx, h2.augs[l].idx) || !slices.Equal(h1.augs[l].val, h2.augs[l].val) {
			t.Fatal("aug entries differ")
		}
	}
}

func TestSingleLevelHierarchy(t *testing.T) {
	orig := smoothField(17, 18)
	h := mustDecompose(t, orig, Options{Levels: 1})
	if h.TotalEntries() != 0 {
		t.Fatalf("L=1 should have no augmentations, got %d", h.TotalEntries())
	}
	rec := h.Recompose(0)
	if rec.AbsDiffMax(orig) != 0 {
		t.Fatal("L=1 base must equal original")
	}
	if h.BaseAccuracy() != 0 {
		t.Fatalf("L=1 base accuracy = %v", h.BaseAccuracy())
	}
}

// TestBaseNeverAliasesOrig: at one level the base is a copy of the
// caller's field, and at more it is the coarsest level Restrict built, so
// writing the field afterwards never reaches the hierarchy.
func TestBaseNeverAliasesOrig(t *testing.T) {
	for _, levels := range []int{1, 2, 3} {
		orig := smoothField(17, 19)
		h := mustDecompose(t, orig, Options{Levels: levels})
		want := h.Base().Clone()
		if &h.Base().Data()[0] == &orig.Data()[0] {
			t.Fatalf("Levels=%d: the base shares the caller's field", levels)
		}
		for i := range orig.Data() {
			orig.Data()[i] = -1
		}
		if h.Base().AbsDiffMax(want) != 0 {
			t.Fatalf("Levels=%d: writing the caller's field moved the base", levels)
		}
	}
}

func TestRecomposeAtLevel(t *testing.T) {
	orig := smoothField(33, 30)
	h := mustDecompose(t, orig, Options{Levels: 4})

	// Level 0 with full cursor equals the standard recomposition.
	full := h.RecomposeAtLevel(h.TotalEntries(), 0)
	if full.AbsDiffMax(h.Recompose(h.TotalEntries())) != 0 {
		t.Fatal("level-0 recomposition differs from Recompose")
	}

	// Level L-1 is the base itself regardless of cursor.
	base := h.RecomposeAtLevel(h.TotalEntries(), h.Levels()-1)
	if base.AbsDiffMax(h.Base()) != 0 {
		t.Fatal("base-level recomposition differs from Base()")
	}

	// An intermediate level with full augmentation equals the exact
	// restriction chain of the original (the decomposition's Ω^l).
	lvl := 1
	inter := h.RecomposeAtLevel(h.TotalEntries(), lvl)
	want := orig.Clone()
	for l := 0; l < lvl; l++ {
		want = Restrict(want, 2)
	}
	if d := inter.AbsDiffMax(want); d > 1e-12*orig.Range() {
		t.Fatalf("intermediate level diff %v", d)
	}

	// Dims match the level's grid.
	if !sameInts(inter.Dims(), h.levelDims[lvl]) {
		t.Fatalf("dims %v, want %v", inter.Dims(), h.levelDims[lvl])
	}
}

// RecomposeAtLevel reconstructs the representation at a chosen level
// (0 = original resolution, L-1 = base) from the base plus the first
// `cursor` augmentation entries, ignoring entries at finer levels: Fig 3's
// low-accuracy analysis on a coarser grid. No product code asks for a
// level above 0, so above it this is the serial oracle.
func (h *Hierarchy) RecomposeAtLevel(cursor, level int) *tensor.Tensor {
	if level == 0 {
		return h.Recompose(cursor)
	}
	return recomposeSerial(h, cursor, level)
}

// recomposeSerial is Recompose, at any level, as it stood before its
// entry scatter went onto par.For, kept verbatim as the oracle.
func recomposeSerial(h *Hierarchy, cursor, level int) *tensor.Tensor {
	if level < 0 || level >= len(h.levelDims) {
		panic(fmt.Sprintf("refactor: level %d out of range [0,%d)", level, len(h.levelDims)))
	}
	pos, take := h.split(cursor)
	r := h.base // read-only until the first Prolongate replaces it
	d := h.opts.Decimation
	for i, lvl := range h.order {
		if lvl < level {
			break
		}
		r = Prolongate(r, h.levelDims[lvl], d)
		var n int
		switch {
		case i < pos:
			n = len(h.augs[lvl].val)
		case i == pos:
			n = take
		default:
			n = 0
		}
		data := r.Data()
		for _, e := range h.augs[lvl].entries()[:n] {
			data[e.idx] += e.val
		}
	}
	if r == h.base {
		r = r.Clone() // the caller owns what it gets
	}
	return r
}

// TestRecomposeMatchesSerialScatter compares Recompose with the serial
// scatter bit for bit at one and two workers, on a hierarchy whose
// level-0 stream is below par.Threshold and one whose stream spans
// several chunks, at cursors inside and on the edges of every zone.
func TestRecomposeMatchesSerialScatter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{65, 257} {
		h := mustDecompose(t, smoothField(n, 4), Options{Levels: 4})
		if n == 257 && len(h.augs[0].val) <= par.Threshold {
			t.Fatalf("level 0 has %d entries: not several chunks", len(h.augs[0].val))
		}
		var cursors []int
		prev := 0
		for _, c := range h.cum {
			cursors = append(cursors, prev, (prev+c)/2, c)
			prev = c
		}
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			for _, cursor := range cursors {
				got, want := h.Recompose(cursor).Data(), recomposeSerial(h, cursor, 0).Data()
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d procs=%d cursor %d point %d: %v, serial %v",
							n, procs, cursor, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestRecomposeAtLevelPanicsOutOfRange(t *testing.T) {
	orig := smoothField(17, 31)
	h := mustDecompose(t, orig, Options{Levels: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.RecomposeAtLevel(0, 5)
}

func TestLadderBoundsPropertyAcrossRandomFields(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 17 + 2*rng.Intn(12)
		orig := tensor.New(n, n)
		for i := range orig.Data() {
			// Smooth base + noise so the ladder is nontrivial.
			orig.Data()[i] = math.Sin(float64(i)/13) + 0.1*rng.NormFloat64()
		}
		bounds := []float64{0.2, 0.05, 0.01}
		h, err := Decompose(orig, Options{Levels: 2 + rng.Intn(2), Bounds: bounds})
		if err != nil {
			return false
		}
		for _, r := range h.Rungs() {
			if !errmetric.NRMSE.Satisfies(h.Achieved(orig, r.Cursor), r.Bound+1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestDecomposeBytesCeiling1025: one decomposition of BenchmarkLadder1025's
// shape (1025², four levels, three bounds) allocates 5.45 level-0 fields.
// A 16-byte ping-pong entry buffer for the sort, beside the value column
// that now ping-pongs through the work field, made it 7.06.
func TestDecomposeBytesCeiling1025(t *testing.T) {
	orig := benchGrid(1025)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mustDecompose(t, orig, Options{Levels: 4, Bounds: []float64{1e-1, 1e-2, 1e-3}})
	runtime.ReadMemStats(&after)
	field := float64(8 * orig.Len())
	got := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("Decompose allocated %.0f bytes, %.2f level-0 fields", got, got/field)
	if got > 5.6*field {
		t.Fatalf("Decompose allocated %.2f level-0 fields, want at most 5.6", got/field)
	}
}
