package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A decoder for the part of the pprof format CPU attribution needs:
// gzip, then the protobuf message perftools.profiles.Profile, read with
// a hand-rolled wire-format walker so go.mod stays dependency-free.
// Field numbers are those of profile.proto.

var errTruncated = errors.New("truncated protobuf")

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// pbFields calls fn for every field of message b: v holds a varint or
// fixed-width value, data a length-delimited one.
func pbFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, rest, err := pbVarint(b)
		if err != nil {
			return err
		}
		b = rest
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, b, err = pbVarint(b); err != nil {
				return err
			}
		case 1, 5:
			n := 8
			if key&7 == 5 {
				n = 4
			}
			if len(b) < n {
				return errTruncated
			}
			for i := n - 1; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[n:]
		case 2:
			var n uint64
			if n, b, err = pbVarint(b); err != nil {
				return err
			}
			if uint64(len(b)) < n {
				return errTruncated
			}
			data, b = b[:n], b[n:]
		default:
			return fmt.Errorf("protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated appends a repeated varint field's values, packed (data) or
// not (v).
func pbRepeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, rest, err := pbVarint(data)
		if err != nil {
			return nil, err
		}
		dst, data = append(dst, x), rest
	}
	return dst, nil
}

// cpuSample is one stack of a CPU profile, leaf first, with the last of
// its values (cpu nanoseconds in runtime/pprof profiles).
type cpuSample struct {
	stack []string // function names, innermost first, inlined frames expanded
	value int64
}

func decodeProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs  []uint64
		value int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → string index
		strs      []string
	)
	err = pbFields(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			var vals []uint64
			err := pbFields(data, func(num int, v uint64, data []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = pbRepeated(s.locs, v, data)
				case 2:
					vals, err = pbRepeated(vals, v, data)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return pbFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			err := pbFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{value: s.value}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("function %d names string %d of %d", fn, idx, len(strs))
				}
				cs.stack = append(cs.stack, strs[idx])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// funcPackage returns the import path of a symbol such as
// "tango/internal/sim.(*Engine).Run" or "runtime.mallocgc".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments may hold slashes and dots
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// layerOfPackage maps a package to the layer its samples are charged
// to, or "" for stdlib helpers (math, sort, bytes, …), whose samples go
// to the nearest caller that has a layer.
func layerOfPackage(pkg string) string {
	if l, ok := strings.CutPrefix(pkg, "tango/internal/"); ok {
		for _, known := range layers {
			if l == known {
				return l
			}
		}
		return "other"
	}
	switch {
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"),
		pkg == "sync", pkg == "sync/atomic":
		return "runtime"
	case pkg == "main", pkg == "tango", strings.HasPrefix(pkg, "tango/"):
		return "other"
	}
	return ""
}

// cpuShares attributes each sample's CPU time to one layer by its leaf
// frame's package — self time, so the shares of a profile sum to 1. A
// run too short to be sampled (-quick) gives all-zero shares and n = 0.
func cpuShares(gz []byte) (shares map[string]float64, n int, err error) {
	samples, err := decodeProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	shares = map[string]float64{"runtime": 0, "other": 0}
	for _, l := range layers {
		shares[l] = 0
	}
	var total float64
	for _, s := range samples {
		layer := "other"
		for _, fn := range s.stack {
			if l := layerOfPackage(funcPackage(fn)); l != "" {
				layer = l
				break
			}
		}
		shares[layer] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= total
		}
	}
	return shares, len(samples), nil
}
