// Package cpuprof reads a runtime/pprof CPU profile and charges every
// sample to one layer of the system, so a traced benchmark run can say
// which package the host CPU went to. It decodes the gzip-compressed
// profile.proto encoding directly — the few fields it needs — so go.mod
// stays free of dependencies.
package cpuprof

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Sample is one profile sample: the call stack as function names, leaf
// first with inlined frames expanded, and the CPU nanoseconds it stands for.
type Sample struct {
	Stack []string
	Nanos int64
}

// Parse decodes a CPU profile as written by pprof.StartCPUProfile.
func Parse(data []byte) ([]Sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpuprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpuprof: %w", err)
	}

	// Field numbers below are those of profile.proto.
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locations = map[uint64][]uint64{} // location id → function ids, innermost first
		functions = map[uint64]uint64{}   // function id → name index
		strs      []string
	)
	err = fields(raw, func(num int, varint uint64, body []byte) error {
		switch num {
		case 2: // Profile.sample
			var s rawSample
			err := fields(body, func(num int, v uint64, packed []byte) error {
				switch num {
				case 1: // Sample.location_id
					return repeated(&s.locs, v, packed)
				case 2: // Sample.value
					return repeated(&s.values, v, packed)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var funcs []uint64
			err := fields(body, func(num int, v uint64, line []byte) error {
				switch num {
				case 1: // Location.id
					id = v
				case 4: // Location.line
					return fields(line, func(num int, v uint64, _ []byte) error {
						if num == 1 { // Line.function_id
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = funcs
			return err
		case 5: // Profile.function
			var id, name uint64
			err := fields(body, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1: // Function.id
					id = v
				case 2: // Function.name
					name = v
				}
				return nil
			})
			functions[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(body))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]Sample, 0, len(samples))
	for _, s := range samples {
		// A CPU profile carries two values per sample: the sample count
		// and the CPU time in nanoseconds.
		if len(s.values) < 2 {
			return nil, errors.New("cpuprof: sample without a cpu/nanoseconds value")
		}
		smp := Sample{Nanos: int64(s.values[1])}
		for _, loc := range s.locs {
			for _, fn := range locations[loc] {
				idx := functions[fn]
				if idx >= uint64(len(strs)) {
					return nil, errors.New("cpuprof: function name outside the string table")
				}
				smp.Stack = append(smp.Stack, strs[idx])
			}
		}
		out = append(out, smp)
	}
	return out, nil
}

// fields walks the fields of one protobuf message. fn receives the field
// number and either the varint value or the length-delimited body.
func fields(msg []byte, fn func(num int, varint uint64, body []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n == 0 {
			return errors.New("cpuprof: truncated field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(msg)
			if n == 0 {
				return errors.New("cpuprof: truncated varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errors.New("cpuprof: truncated length-delimited field")
			}
			body := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, body); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("cpuprof: truncated fixed64")
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errors.New("cpuprof: truncated fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("cpuprof: unsupported wire type %d", wire)
		}
	}
	return nil
}

// repeated appends one element of a repeated integer field, which arrives
// either as a single varint or as a packed run of them.
func repeated(dst *[]uint64, varint uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, varint)
		return nil
	}
	for len(packed) > 0 {
		v, n := uvarint(packed)
		if n == 0 {
			return errors.New("cpuprof: truncated packed varint")
		}
		*dst = append(*dst, v)
		packed = packed[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// Layers are the buckets a sample can be charged to, in reporting order:
// the repository's packages, the two runtime buckets, and the remainder.
var Layers = []string{
	"sim", "runtime.sched", "runtime.gc", "fabric", "dsm", "mem", "core", "futex", "obs",
	"chaos", "serve", "apps", "graph", "textgen", "exper", "radix", "other",
}

const internalPrefix = "dex/internal/"

// Layer charges one stack to a layer: the innermost frame in a
// dex/internal/<pkg> package decides, so a channel receive under
// sim.(*Task).yield is sim's and an allocation under dsm is dsm's. A
// stack with no dex frame at all is the Go runtime working for itself:
// garbage collection if a collector frame is present, otherwise
// scheduling. Anything else — the root package, the benchmark's own code,
// packages without a bucket — is "other".
func Layer(stack []string) string {
	dexFrame := false
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg := rest[:strings.IndexAny(rest+".", "./")]
			for _, l := range Layers {
				if l == pkg {
					return l
				}
			}
			return "other"
		}
		if strings.HasPrefix(fn, "dex.") || strings.HasPrefix(fn, "dex/") || strings.HasPrefix(fn, "main.") {
			dexFrame = true
		}
	}
	if dexFrame {
		return "other"
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") {
			return "runtime.gc"
		}
	}
	return "runtime.sched"
}

// Attribute sums the CPU nanoseconds of the samples per layer. Every
// layer of Layers is present in the result, so shares always sum to one.
func Attribute(samples []Sample) (byLayer map[string]int64, total int64) {
	byLayer = make(map[string]int64, len(Layers))
	for _, l := range Layers {
		byLayer[l] = 0
	}
	for _, s := range samples {
		byLayer[Layer(s.Stack)] += s.Nanos
		total += s.Nanos
	}
	return byLayer, total
}
