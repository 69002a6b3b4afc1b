package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// The traced run attributes host CPU time and heap allocation to the
// simulator's layers, named after the internal/ packages they measure.
// internal/trace (the hypervisor's trace ring) counts as hv and
// internal/ksym (the detector's symbol tables) as core. runtime holds
// malloc and GC work; other holds the benchmark's own code and packages no
// workload exercises.
var layers = []string{
	"simtime", "hv", "guest", "workload", "core", "vnet", "obs", "metrics", "rng",
	"runtime", "experiment", "other",
}

const modulePath = "github.com/microslicedcore/microsliced"

var layerOfPackage = map[string]string{
	"simtime": "simtime", "hv": "hv", "trace": "hv", "guest": "guest", "workload": "workload",
	"core": "core", "ksym": "core", "vnet": "vnet", "obs": "obs", "metrics": "metrics",
	"rng": "rng", "experiment": "experiment",
}

// repoLayer reports the layer of a function from this repository (or of
// the benchmark's main package); ok is false for a standard-library frame.
func repoLayer(fn string) (layer string, ok bool) {
	if strings.HasPrefix(fn, "main.") {
		return "other", true
	}
	rest, found := strings.CutPrefix(fn, modulePath)
	if !found {
		return "", false
	}
	pkg, found := strings.CutPrefix(rest, "/internal/")
	if !found {
		return "other", true
	}
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	if l, ok := layerOfPackage[pkg]; ok {
		return l, true
	}
	return "other", true
}

// mallocGCPrefixes name the runtime's allocator and garbage collector.
var mallocGCPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
	"runtime.growslice", "runtime.makemap", "runtime.gc", "runtime.markroot",
	"runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.greyobject",
	"runtime.findObject", "runtime.wbBuf", "runtime.bgsweep", "runtime.sweepone",
	"runtime.bgscavenge", "runtime.(*mheap)", "runtime.(*mspan)", "runtime.(*mcache)",
	"runtime.(*mcentral)", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
	"runtime.(*sweepLocked)", "runtime.(*scavengerState)", "runtime.(*pageAlloc)",
}

func isMallocGC(fn string) bool {
	for _, p := range mallocGCPrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// cpuLayer attributes one CPU sample, frames leaf first: to runtime when
// the leaf is inside malloc or GC, otherwise to the nearest repository
// frame, so a standard-library leaf such as math.Log counts toward its
// caller. A stack with neither counts as runtime when its leaf is in the
// runtime (scheduler, idle) and as other otherwise.
func cpuLayer(frames []string) string {
	for _, fn := range frames {
		if isMallocGC(fn) {
			return "runtime"
		}
		if l, ok := repoLayer(fn); ok {
			return l
		}
	}
	if len(frames) > 0 && strings.HasPrefix(frames[0], "runtime.") {
		return "runtime"
	}
	return "other"
}

// allocLayer attributes one allocation site to its nearest repository
// frame; ok is false for a stack with none, such as the profiler's own
// buffers.
func allocLayer(frames []string) (layer string, ok bool) {
	for _, fn := range frames {
		if l, ok := repoLayer(fn); ok {
			return l, true
		}
	}
	return "", false
}

// cpuByLayer decodes a gzipped pprof CPU profile and returns the CPU time
// per layer in nanoseconds.
func cpuByLayer(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	vi := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("cpu profile: no sample types")
	}
	out := map[string]int64{}
	var frames []string
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		frames = frames[:0]
		for _, id := range s.locations {
			for _, fid := range p.locations[id] {
				frames = append(frames, p.functions[fid])
			}
		}
		out[cpuLayer(frames)] += s.values[vi]
	}
	return out, nil
}

// allocProfileRate is the heap sampling interval of the traced run, finer
// than the runtime's 512 KiB default so small layers get samples.
const allocProfileRate = 64 << 10

// allocSnapshot is the runtime's sampled allocation profile per call
// stack.
type allocSnapshot map[[32]uintptr]allocRecord

type allocRecord struct{ bytes, objects int64 }

func takeAllocSnapshot() allocSnapshot {
	// The allocation profile is published at the end of a GC cycle and may
	// lag by two cycles.
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+50)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	snap := make(allocSnapshot, len(recs))
	for _, r := range recs {
		a := snap[r.Stack0]
		a.bytes += r.AllocBytes
		a.objects += r.AllocObjects
		snap[r.Stack0] = a
	}
	return snap
}

// allocByLayer estimates the bytes each layer allocated between two
// snapshots taken at allocProfileRate. Each sampled stack is scaled up by
// its sampling probability as pprof does; stacks with no repository frame
// are left out.
func allocByLayer(before, after allocSnapshot) map[string]float64 {
	out := map[string]float64{}
	for stk, a := range after {
		b, n := a.bytes-before[stk].bytes, a.objects-before[stk].objects
		if b <= 0 || n <= 0 {
			continue
		}
		var pcs []uintptr
		for _, pc := range stk {
			if pc == 0 {
				break
			}
			pcs = append(pcs, pc)
		}
		var frames []string
		it := runtime.CallersFrames(pcs)
		for {
			f, more := it.Next()
			frames = append(frames, f.Function)
			if !more {
				break
			}
		}
		if l, ok := allocLayer(frames); ok {
			avg := float64(b) / float64(n)
			out[l] += float64(b) / (1 - math.Exp(-avg/allocProfileRate))
		}
	}
	return out
}

// profile is the part of a pprof profile.proto message the attribution
// needs.
type profile struct {
	sampleTypes []string
	samples     []pbSample
	locations   map[uint64][]uint64 // location id → function ids, leaf (innermost inline) first
	functions   map[uint64]string   // function id → name
}

type pbSample struct {
	locations []uint64
	values    []int64
}

// decodeProfile parses an uncompressed profile.proto message
// (github.com/google/pprof/proto/profile.proto): sample_type = 1,
// sample = 2, location = 4, function = 5, string_table = 6.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	var strs []string
	var typeIdx []uint64
	fnName := map[uint64]uint64{}
	err := eachField(b, func(f int, v uint64, data []byte) error {
		switch f {
		case 1: // ValueType: type = 1
			return eachField(data, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // Sample: location_id = 1, value = 2
			var s pbSample
			err := eachField(data, func(f int, v uint64, data []byte) error {
				switch f {
				case 1:
					return eachVarint(v, data, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return eachVarint(v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location: id = 1, line = 4 (Line: function_id = 1)
			var id uint64
			var fns []uint64
			err := eachField(data, func(f int, v uint64, data []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(data, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			err := eachField(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(i))
	}
	for id, n := range fnName {
		p.functions[id] = str(n)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks a protobuf message, calling fn with each field number
// and either its varint value (wire types 0, 1, 5) or its bytes (wire
// type 2, where v is 0).
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("protobuf wire type %d unsupported", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values, packed (data) or
// not (v).
func eachVarint(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
