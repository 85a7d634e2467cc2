package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuPackages are the layers whose flat CPU share the traced run
// reports: the ones with no call boundary the benchmark can time from
// outside. The key is the metric's name part, the value the package
// path.
var cpuPackages = []struct{ key, path string }{
	{"interp", "jumpstart/internal/interp"},
	{"microarch", "jumpstart/internal/microarch"},
	{"jit", "jumpstart/internal/jit"},
	{"replay", "jumpstart/internal/replay"},
	{"prof", "jumpstart/internal/prof"},
	{"layout", "jumpstart/internal/layout"},
	{"server", "jumpstart/internal/server"},
	{"cluster", "jumpstart/internal/cluster"},
	{"transport", "jumpstart/internal/jumpstart/transport"},
	{"compress_flate", "compress/flate"},
	{"runtime", "runtime"},
}

// cpuShares decodes a CPU profile as runtime/pprof writes it and
// returns each cpuPackages entry's share of the profile's samples,
// attributing every sample to the function it was executing (flat,
// not cumulative). Go's runtime internals under internal/runtime count
// as runtime.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	byPkg := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		total += v
		if fns := p.locFuncs[s.locs[0]]; len(fns) > 0 {
			byPkg[packageOf(p.strings[p.funcName[fns[0]]])] += v
		}
	}
	shares := make(map[string]float64, len(cpuPackages))
	for _, c := range cpuPackages {
		shares[c.key] = 0
		if total > 0 {
			shares[c.key] = byPkg[c.path] / total
		}
	}
	return shares, nil
}

// packageOf returns the package path of a symbol such as
// "jumpstart/internal/interp.(*Interp).run" or "runtime.mallocgc".
func packageOf(sym string) string {
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		return sym
	}
	pkg := sym[:slash+1+dot]
	if strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return pkg
}

type pprofSample struct {
	locs   []uint64
	values []int64
}

// pprofData is the part of a profile.proto message cpuShares reads.
type pprofData struct {
	samples  []pprofSample
	locFuncs map[uint64][]uint64 // location ID → function IDs, innermost first
	funcName map[uint64]int64    // function ID → string table index
	strings  []string
}

var errTruncated = errors.New("truncated protobuf")

// protoFields walks one protobuf message, calling fn for each field
// with its number, wire type, varint value (wire type 0) and payload
// (wire type 2).
func protoFields(b []byte, fn func(num int, wt int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wt {
		case 0:
			if v, n = uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, payload); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repeatedVarints appends a repeated integer field given either packed
// (wire type 2) or as one varint (wire type 0).
func repeatedVarints(dst []uint64, wt int, v uint64, payload []byte) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	for len(payload) > 0 {
		x, n := uvarint(payload)
		if n <= 0 {
			return nil, errTruncated
		}
		dst = append(dst, x)
		payload = payload[n:]
	}
	return dst, nil
}

func parseProfile(b []byte) (*pprofData, error) {
	p := &pprofData{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := protoFields(b, func(num, wt int, v uint64, payload []byte) error {
		switch num {
		case 2: // sample
			var s pprofSample
			var vals []uint64
			err := protoFields(payload, func(num, wt int, v uint64, payload []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = repeatedVarints(s.locs, wt, v, payload)
				case 2:
					vals, err = repeatedVarints(vals, wt, v, payload)
				}
				return err
			})
			for _, x := range vals {
				s.values = append(s.values, int64(x))
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(payload, func(num, wt int, v uint64, payload []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return protoFields(payload, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(payload, func(num, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(payload))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.funcName {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function name index %d out of range", name)
		}
	}
	return p, nil
}
