package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"
)

// layers are the repository's modules, the names per-layer CPU time is
// reported under. Module frames of any other package count as "other";
// samples without a module frame count as "runtime".
var layers = []string{
	"sim", "kernel", "machine", "coherence", "cache", "interconnect", "mem", "noise",
	"covert", "stats", "ecc", "capacity", "experiments", "mitigate", "harness", "store",
	"replay", "service", "tenant", "dispatch",
}

// layerOf maps a profiled function name to its layer; ok is false for
// frames outside this module (runtime, standard library).
func layerOf(fn string) (layer string, ok bool) {
	const internal = "coherentleak/internal/"
	if rest, found := strings.CutPrefix(fn, internal); found {
		if i := strings.IndexAny(rest, "/."); i >= 0 {
			rest = rest[:i]
		}
		if contains(layers, rest) {
			return rest, true
		}
		return "other", true
	}
	if strings.HasPrefix(fn, "coherentleak/") || strings.HasPrefix(fn, "main.") {
		return "other", true
	}
	return "", false
}

// layerCPU charges every CPU-profile sample of the given profiles to the
// innermost frame that belongs to this module, so channel and scheduler
// time spent in the runtime on behalf of a simulated thread lands on sim,
// and reports <layer>.cpu_s for every layer plus other and runtime.
func (r *run) layerCPU(paths ...string) {
	byLayer := map[string]float64{}
	samples := 0
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			r.opFailed("reading CPU profile: %v", err)
			continue
		}
		l, n, err := attributeProfile(b)
		if err != nil {
			r.opFailed("decoding CPU profile: %v", err)
			continue
		}
		for k, v := range l {
			byLayer[k] += v
		}
		samples += n
	}
	for _, l := range append(append([]string(nil), layers...), "other", "runtime") {
		r.set(l+".cpu_s", byLayer[l], samples)
	}
}

// attributeProfile decodes a gzipped pprof profile (profile.proto) and
// sums its CPU nanoseconds per layer, returning seconds and the sample
// count.
func attributeProfile(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	var (
		strs      []string
		valueUnit []int64 // string index of each sample value's unit
		samples   []pbSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName  = map[uint64]int64{}    // function id -> name string index
	)
	err = pbFields(raw, func(field int, v uint64, data []byte) error {
		switch field {
		case 1: // sample_type
			var unit int64
			pbFields(data, func(f int, v uint64, _ []byte) error {
				if f == 2 {
					unit = int64(v)
				}
				return nil
			})
			valueUnit = append(valueUnit, unit)
		case 2: // sample
			var s pbSample
			err := pbFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = pbAppendUints(s.locs, v, d)
				case 2:
					s.vals = pbAppendUints(s.vals, v, d)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(d, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	vi := len(valueUnit) - 1
	for i, u := range valueUnit {
		if u >= 0 && int(u) < len(strs) && strs[u] == "nanoseconds" {
			vi = i
		}
	}
	out := map[string]float64{}
	for _, s := range samples {
		if vi < 0 || vi >= len(s.vals) {
			continue
		}
		layer := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				if idx := funcName[fn]; idx >= 0 && int(idx) < len(strs) {
					if l, ok := layerOf(strs[idx]); ok {
						layer = l
						break stack
					}
				}
			}
		}
		out[layer] += float64(int64(s.vals[vi])) / 1e9
	}
	return out, len(samples), nil
}

type pbSample struct{ locs, vals []uint64 }

// pbFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// pbAppendUints appends a repeated varint field given either unpacked
// (v) or packed (data).
func pbAppendUints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
