package refactor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"tango/internal/errmetric"
	"tango/internal/tensor"
)

// plainWriter hides bytes.Buffer's Grow, so Encode takes the path of a
// writer it cannot size.
type plainWriter struct{ w io.Writer }

func (p plainWriter) Write(b []byte) (int, error) { return p.w.Write(b) }

// failingWriter accepts limit bytes, then fails every write.
type failingWriter struct {
	buf   bytes.Buffer
	limit int
}

var errFull = errors.New("writer full")

func (f *failingWriter) Write(b []byte) (int, error) {
	room := f.limit - f.buf.Len()
	if len(b) <= room {
		return f.buf.Write(b)
	}
	f.buf.Write(b[:room])
	return room, errFull
}

// TestEncodeSizedOnce: Encode writes the same bytes into a bytes.Buffer
// (grown once to encodedLen first) as into a writer it cannot size, a
// writer that fails partway gets a prefix of them and the error, and
// encodedLen is the length written — over ranks 1–3, with and without a
// ladder, both metrics, and a decoded hierarchy.
func TestEncodeSizedOnce(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		var b [binary.MaxVarintLen64]byte
		if got, want := uvarintLen(v), binary.PutUvarint(b[:], v); got != want {
			t.Fatalf("uvarintLen(%d) = %d, PutUvarint writes %d", v, got, want)
		}
	}
	field := func(dims ...int) *tensor.Tensor {
		f := tensor.New(dims...)
		for i := range f.Data() {
			f.Data()[i] = math.Sin(float64(i)*0.029) * float64(i%13)
		}
		return f
	}
	cases := []struct {
		orig *tensor.Tensor
		opts Options
	}{
		{field(5000), Options{Levels: 5}},
		{smoothField(129, 4), Options{Levels: 3, Bounds: []float64{1e-1, 1e-2, 1e-3}}},
		{smoothField(65, 5), Options{Levels: 2, Metric: errmetric.PSNR, Bounds: []float64{20, 40}, NoSort: true}},
		{field(17, 9, 33), Options{Levels: 4, Bounds: []float64{0.2}}},
		{field(3, 3), Options{Levels: 1}},
	}
	for i, tc := range cases {
		h := mustDecompose(t, tc.orig, tc.opts)
		var first bytes.Buffer
		if err := h.Encode(&first); err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for j, hh := range []*Hierarchy{h, dec} {
			name := fmt.Sprintf("case %d hierarchy %d", i, j)
			var buf, plain bytes.Buffer
			if err := hh.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			if err := hh.Encode(plainWriter{&plain}); err != nil {
				t.Fatal(err)
			}
			if hh.encodedLen() != buf.Len() {
				t.Fatalf("%s: encodedLen %d, Encode wrote %d", name, hh.encodedLen(), buf.Len())
			}
			if !bytes.Equal(buf.Bytes(), plain.Bytes()) || !bytes.Equal(buf.Bytes(), first.Bytes()) {
				t.Fatalf("%s: the buffered, plain and first encodings differ", name)
			}
			for _, limit := range []int{0, 5, buf.Len() / 3, buf.Len() - 1} {
				fw := &failingWriter{limit: limit}
				if err := hh.Encode(fw); !errors.Is(err, errFull) {
					t.Fatalf("%s: writer full at %d bytes: Encode returned %v", name, limit, err)
				}
				if !bytes.HasPrefix(buf.Bytes(), fw.buf.Bytes()) {
					t.Fatalf("%s: writer full at %d bytes got %d bytes that are not the encoding's prefix", name, limit, fw.buf.Len())
				}
			}
		}
	}
}
