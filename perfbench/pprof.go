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

// pprofModules are the groups a CPU sample is charged to: the innermost
// frame from repro/internal/<module> names the module, the benchmark's
// own wrappers (package main) count as "bench", a stack with neither is
// "runtime" when its leaf is in the runtime and "other" otherwise.
var pprofModules = []string{
	"sim", "flood", "visited", "netem", "topology", "adversary",
	"adaptive", "dcnet", "relchan", "core", "workload", "transport",
	"wire", "proto", "crypto", "metrics", "runtime", "bench", "other",
}

// moduleShares decodes a gzipped CPU profile as runtime/pprof writes it
// and returns each module's share of the sampled CPU time.
func moduleShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(pprofModules))
	for _, m := range pprofModules {
		known[m] = true
	}
	group := func(fn string) string {
		if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			mod, _, _ := strings.Cut(rest, ".")
			if known[mod] {
				return mod
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
		return ""
	}
	weight := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		v := s.value
		total += v
		mod := ""
		leaf := ""
	stack:
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				name := p.strings[p.funcName[fid]]
				if leaf == "" {
					leaf = name
				}
				if mod = group(name); mod != "" {
					break stack
				}
			}
		}
		if mod == "" {
			mod = "other"
			if strings.HasPrefix(leaf, "runtime.") {
				mod = "runtime"
			}
		}
		weight[mod] += v
	}
	out := make(map[string]float64, len(pprofModules))
	for _, m := range pprofModules {
		if total > 0 {
			out[m] = float64(weight[m]) / float64(total)
		} else {
			out[m] = 0
		}
	}
	return out, nil
}

type pprofSample struct {
	locs  []uint64
	value int64 // the last sample value: CPU nanoseconds
}

type pprofProfile struct {
	samples  []pprofSample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

// decodeProfile reads the subset of profile.proto the grouping needs:
// Profile{sample=2, location=4, function=5, string_table=6},
// Sample{location_id=1, value=2}, Location{id=1, line=4},
// Line{function_id=1}, Function{id=1, name=2}.
func decodeProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, sub []byte) error {
		switch field {
		case 2:
			var s pprofSample
			var vals []uint64
			if err := eachField(sub, func(f, w int, v uint64, sb []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, sb)
				case 2:
					vals = appendVarints(vals, w, v, sb)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var funcs []uint64
			if err := eachField(sub, func(f, w int, v uint64, sb []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(sb, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case 5:
			var id uint64
			var name int64
			if err := eachField(sub, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcName {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errors.New("pprof: function name outside string table")
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field in either encoding.
func appendVarints(dst []uint64, wire int, v uint64, packed []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and value (varint) or payload (length-delimited).
func eachField(b []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
