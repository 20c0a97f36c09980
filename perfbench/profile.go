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

// layers are the CPU self-time buckets of the traced run, in report
// order: the repository's layers named after its modules, then the Go
// runtime split into garbage collection and everything else, then
// "other" for samples with no repository frame (the benchmark program
// itself, its HTTP client, idle syscalls).
var layers = []string{"wire", "sim", "network", "protocol", "attack", "world",
	"measure", "dispatch", "service", "gc", "runtime", "other"}

// repoPrefix is the module path of the code under test.
const repoPrefix = "crosslayer/internal/"

// layerOfPackage maps the repository's packages to layers. The
// packages the layer list does not name join the layer that calls
// them: the wire-buffer arena (pool) belongs to wire, the application
// victims (apps) and RPKI validation (rpki) are part of the world a
// scenario builds, and the statistics helpers (stats) serve measure.
var layerOfPackage = map[string]string{
	"dnswire": "wire", "packet": "wire", "pool": "wire",
	"sim":    "sim",
	"netsim": "network", "ipfrag": "network",
	"resolver": "protocol", "dnssrv": "protocol",
	"core":     "attack",
	"scenario": "world", "bgp": "world", "deploy": "world", "apps": "world", "rpki": "world",
	"engine":  "dispatch",
	"measure": "measure", "stats": "measure",
	"campaign": "service", "serve": "service", "report": "service",
}

// funcPackage returns the import path of a symbolized Go function
// name: "crosslayer/internal/dnswire.(*Message).Pack" gives
// "crosslayer/internal/dnswire". Generic instantiations carry package
// paths inside their brackets, so those are cut first.
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// repoLayer returns the layer of a function in the repository, or ""
// for any other function.
func repoLayer(fn string) string {
	pkg := funcPackage(fn)
	if !strings.HasPrefix(pkg, repoPrefix) {
		return ""
	}
	if l, ok := layerOfPackage[strings.TrimPrefix(pkg, repoPrefix)]; ok {
		return l
	}
	return "other"
}

func isRuntime(fn string) bool {
	pkg := funcPackage(fn)
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// isGC reports whether a frame belongs to the collector: its
// background mark and sweep workers, mark assists charged to
// allocating goroutines, and write barriers.
func isGC(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject",
		"runtime.sweepone", "runtime.wbBufFlush", "runtime.wbBufFlush1":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// sampleLayer attributes one sample, given its stack leaf first. A
// sample with a collector frame anywhere is GC time. Otherwise the
// leaf decides: a repository function gives its layer, a runtime
// function gives "runtime", and any other standard-library function
// (math/rand, encoding/json, syscalls) is charged to the nearest
// repository caller, since that layer chose to spend the time.
func sampleLayer(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return "gc"
		}
	}
	if len(stack) == 0 {
		return "other"
	}
	if l := repoLayer(stack[0]); l != "" {
		return l
	}
	if isRuntime(stack[0]) {
		return "runtime"
	}
	for _, fn := range stack[1:] {
		if l := repoLayer(fn); l != "" {
			return l
		}
	}
	return "other"
}

// foldProfile decodes a CPU profile as runtime/pprof writes it and
// returns the sampled CPU nanoseconds of each layer, with the number of
// samples they rest on.
func foldProfile(data []byte) (map[string]int64, int, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]int64{}
	for _, s := range p.samples {
		// A CPU profile's values are [samples, nanoseconds].
		byLayer[sampleLayer(p.stack(s.locations))] += s.values[len(s.values)-1]
	}
	return byLayer, len(p.samples), nil
}

// profile is the part of a pprof profile.proto message the folding
// needs: samples and enough of the location and function tables to
// name every frame.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost inlined first
	functions map[uint64]int64    // function id → name index
	strings   []string
}

type sample struct {
	locations []uint64
	values    []int64
}

// stack returns a sample's function names, leaf first.
func (p *profile) stack(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, f := range p.locations[l] {
			if i := p.functions[f]; i >= 0 && int(i) < len(p.strings) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

// parseProfile decodes a gzipped profile.proto. Field numbers are from
// github.com/google/pprof/proto/profile.proto: Profile.sample = 2,
// .location = 4, .function = 5, .string_table = 6; Sample.location_id
// = 1, .value = 2; Location.id = 1, .line = 4; Line.function_id = 1;
// Function.id = 1, .name = 2.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locations = appendUints(s.locations, v, b)
				case 2:
					for _, u := range appendUints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(s.values) > 0 {
				p.samples = append(p.samples, s)
			}
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, v uint64, _ []byte) error {
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
			p.locations[id] = fns
		case 5:
			var id uint64
			name := int64(-1)
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendUints appends a repeated integer field that arrived either
// unpacked (one varint v) or packed (b holds consecutive varints).
func appendUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the fields of one protobuf message, calling fn with
// the field number and either its varint value or, for a
// length-delimited field, its bytes (b is nil for a varint).
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
