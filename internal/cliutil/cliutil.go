// Package cliutil holds the argument parsing and raw-grid file I/O shared
// by the command-line tools, kept out of package main so it is testable.
package cliutil

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"tango/internal/core"
	"tango/internal/errmetric"
)

// ParseDims parses "512x512x128"-style grid dimensions whose point count fits an int.
func ParseDims(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	dims := make([]int, 0, len(parts))
	points := 1
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad dims %q", s)
		}
		if points > math.MaxInt/v {
			return nil, fmt.Errorf("dims %q: point count overflows int", s)
		}
		points *= v
		dims = append(dims, v)
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("empty dims")
	}
	return dims, nil
}

// ParseBounds parses a comma-separated list of error bounds; an empty
// string yields nil.
func ParseBounds(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad bound %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseMetric maps the -metric flag onto an error metric, any case.
func ParseMetric(s string) (errmetric.Kind, error) {
	switch strings.ToLower(s) {
	case "nrmse":
		return errmetric.NRMSE, nil
	case "psnr":
		return errmetric.PSNR, nil
	}
	return 0, fmt.Errorf("unknown metric %q (nrmse|psnr)", s)
}

// ParsePolicy maps user-facing policy names onto core policies.
func ParsePolicy(s string) (core.Policy, error) {
	switch strings.ToLower(s) {
	case "none", "noadapt", "no-adapt":
		return core.NoAdapt, nil
	case "storage", "storage-only":
		return core.StorageOnly, nil
	case "app", "app-only", "application":
		return core.AppOnly, nil
	case "cross", "cross-layer", "tango":
		return core.CrossLayer, nil
	case "prefetch", "cross-prefetch", "cross-layer+prefetch":
		return core.CrossLayerPrefetch, nil
	}
	return 0, fmt.Errorf("unknown policy %q (none|storage|app|cross|prefetch)", s)
}

// ReadRawFloat64s reads n little-endian float64 values from path, which
// must hold exactly 8·n bytes: the size is checked before n floats are
// allocated.
func ReadRawFloat64s(path string, n int) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if n > math.MaxInt64/8 || st.Size() != 8*int64(n) {
		return nil, fmt.Errorf("%s holds %d bytes, not %d float64 values", path, st.Size(), n)
	}
	br := bufio.NewReader(f)
	data := make([]float64, n)
	var b [8]byte
	for i := range data {
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return nil, fmt.Errorf("reading point %d: %w", i, err)
		}
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	return data, nil
}

// WriteRawFloat64s writes data as little-endian float64 values to path.
func WriteRawFloat64s(path string, data []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	var b [8]byte
	for _, v := range data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		if _, err := bw.Write(b[:]); err != nil {
			_ = f.Close() // best-effort cleanup; the write error wins
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // best-effort cleanup; the flush error wins
		return err
	}
	return f.Close()
}
