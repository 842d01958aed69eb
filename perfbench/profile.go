package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file attributes a runtime/pprof CPU profile to layers. Each
// sample goes to the innermost frame on its stack that belongs to a
// repro/internal/<pkg> package (or to the benchmark itself, "bench");
// samples with neither — the garbage collector's workers, the
// scheduler — go to "runtime". The per-layer seconds therefore sum to
// the profiled total. The decoder reads only the fields it needs from
// the profile.proto wire format.

// layerCPU returns CPU seconds per layer from a gzipped pprof profile.
func layerCPU(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		funcName  = map[uint64]uint64{}   // function id -> name string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples   [][]uint64              // location ids, leaf first
		values    [][]int64
		valueType []int64 // string indexes of each sample value's type
	)
	err = walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walk(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					valueType = append(valueType, int64(v))
				}
				return nil
			})
		case 2: // sample
			var locs []uint64
			var vals []int64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendPacked(locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			samples, values = append(samples, locs), append(values, vals)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cpu := -1 // index of the cpu/nanoseconds value
	for i, t := range valueType {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	out := map[string]float64{}
	for i, locs := range samples {
		if cpu >= len(values[i]) {
			return nil, errors.New("profile sample lacks its cpu value")
		}
		layer := "runtime"
	stack:
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				if l := layerOf(strs[funcName[fn]]); l != "" {
					layer = l
					break stack
				}
			}
		}
		out[layer] += float64(values[i][cpu]) / 1e9
	}
	return out, nil
}

// layerOf maps a function name to its layer: the package under
// repro/internal/, "bench" for the benchmark's own code, or "" for
// anything else.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return ""
}

// walk calls fn for every field of a protobuf message: varints arrive
// as v, length-delimited fields as b.
func walk(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: short fixed64")
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: bad length")
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: short fixed32")
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which arrives either
// as one varint (v) or packed in b.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
