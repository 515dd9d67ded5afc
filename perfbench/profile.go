package main

// A minimal reader for the gzipped protobuf profiles runtime/pprof writes,
// enough to roll samples up by layer without a module outside the
// standard library. Field numbers follow the profile.proto schema.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the buckets a sample can be charged to, besides "driver"
// (the benchmark's own code), "other" (any other internal package) and
// "gc" (no frame of this module on the stack: GC workers and scheduler
// time between goroutines).
var layers = []string{
	"sim", "netsim", "service", "kvstore", "statecache", "crdt", "faas",
	"queue", "election", "loadgen", "pricing", "simrand", "stats",
}

// rollup is one profile's sample total per bucket, plus the total of the
// samples with encoding/json anywhere on their stack.
type rollup struct {
	bucket map[string]int64
	json   int64
	total  int64
}

func newRollup() rollup { return rollup{bucket: make(map[string]int64)} }

func (r *rollup) add(o rollup, sign int64) {
	for b, v := range o.bucket {
		r.bucket[b] += sign * v
	}
	r.json += sign * o.json
	r.total += sign * o.total
}

// bucketOf charges a stack (leaf first) to the innermost frame of this
// module: a layer under repro/internal, or the benchmark driver (package
// main, named by its import path in test binaries). Samples taken while
// runtime/pprof writes a profile are the profiler's own and get no
// bucket.
func bucketOf(stack []string) (bucket string, json bool) {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime/pprof.") {
			return "", false
		}
		if strings.HasPrefix(fn, "encoding/json.") {
			json = true
		}
		if bucket != "" {
			continue
		}
		if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			pkg, _, _ = strings.Cut(pkg, "/")
			bucket = "other"
			for _, l := range layers {
				if l == pkg {
					bucket = l
				}
			}
		} else if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/perfbench.") {
			bucket = "driver"
		}
	}
	if bucket == "" {
		bucket = "gc"
	}
	return bucket, json
}

// rollupProfile reads a gzipped profile and sums the named sample value
// per bucket.
func rollupProfile(data []byte, valueType string) (rollup, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return rollup{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return rollup{}, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		types     []int64 // sample_type[i].type as a string index
		samples   [][]byte
		locations = map[uint64][]uint64{} // location id -> function ids, leaf first
		functions = map[uint64]int64{}    // function id -> name string index
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, int64(v))
				}
				return nil
			})
		case 2:
			samples = append(samples, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(lb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			functions[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return rollup{}, err
	}
	vi := -1
	for i, t := range types {
		if t >= 0 && int(t) < len(strs) && strs[t] == valueType {
			vi = i
		}
	}
	if vi < 0 {
		return rollup{}, fmt.Errorf("profile: no %q sample type", valueType)
	}
	r := newRollup()
	var stack []string
	for _, sb := range samples {
		var locs []uint64
		var vals []int64
		err := fields(sb, func(n, wire int, v uint64, b []byte) error {
			switch n {
			case 1:
				locs = appendPacked(locs, wire, v, b)
			case 2:
				for _, u := range appendPacked(nil, wire, v, b) {
					vals = append(vals, int64(u))
				}
			}
			return nil
		})
		if err != nil {
			return rollup{}, err
		}
		if vi >= len(vals) {
			return rollup{}, errors.New("profile: short sample")
		}
		stack = stack[:0]
		for _, l := range locs {
			for _, f := range locations[l] {
				if s := functions[f]; s >= 0 && int(s) < len(strs) {
					stack = append(stack, strs[s])
				}
			}
		}
		b, js := bucketOf(stack)
		if b == "" {
			continue
		}
		r.bucket[b] += vals[vi]
		r.total += vals[vi]
		if js {
			r.json += vals[vi]
		}
	}
	return r, nil
}

// appendPacked decodes a repeated varint field given either packed
// (wire type 2) or as one value.
func appendPacked(out []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(out, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return out
		}
		out = append(out, u)
		b = b[n:]
	}
	return out
}

// fields walks one protobuf message, calling fn with each field's number,
// wire type, and its varint value or length-delimited bytes.
func fields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
