package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"runtime/pprof"
	"strings"
)

// profModules are the modules CPU time is attributed to: the repository's
// layers on the measured paths (grizzly and google are internal/traces/*),
// plus the Go runtime (allocation and garbage collection) and the network
// stack the dmpd client and server share.
var profModules = []string{
	"grizzly", "google", "memtrace", "workload", "tracegen",
	"sim", "sched", "policy", "cluster", "slowdown", "core",
	"sweep", "experiments", "telemetry", "server",
	"net", "runtime",
}

// profiler accumulates CPU self time per module over the profiled
// operations. Profiling is started and stopped around each traced
// operation, so the benchmark's own checks stay out of the profile.
type profiler struct {
	buf     bytes.Buffer
	ns      map[string]int64 // module → CPU nanoseconds; "" = other
	samples int64
}

func newProfiler() *profiler { return &profiler{ns: map[string]int64{}} }

func (p *profiler) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	return p.add(p.buf.Bytes())
}

// add decodes one gzipped pprof profile and charges each sample to the
// innermost frame that belongs to a listed module. Frames of other
// standard-library packages (sort, strconv, sync, …) are charged to their
// caller. A sample whose stack reaches the benchmark's own code or an
// unlisted module of the repository before a listed module counts as other,
// and so does runtime work (allocation, copying) the benchmark's own code
// called for, such as reading response bodies.
func (p *profiler) add(gz []byte) error {
	prof, err := decodeProfile(gz)
	if err != nil {
		return err
	}
	listed := map[string]bool{}
	for _, m := range profModules {
		listed[m] = true
	}
	for _, s := range prof.samples {
		p.samples++
		p.ns[chargeTo(prof.frames, s.locs, listed)] += s.ns
	}
	return nil
}

// chargeTo returns the module one sample's stack is charged to ("" =
// other).
func chargeTo(frames map[uint64][]string, locs []uint64, listed map[string]bool) string {
	mod := ""
	for _, loc := range locs {
		for _, fn := range frames[loc] {
			m, terminal := moduleOf(fn)
			switch {
			case m == "runtime":
				// Keep walking: runtime work on behalf of the
				// benchmark's own code is not the program's.
				if mod == "" {
					mod = m
				}
			case listed[m]:
				if mod == "" {
					mod = m
				}
				return mod
			case terminal:
				return ""
			}
		}
	}
	return mod
}

// moduleOf maps a function name to its module. terminal reports that the
// frame is code of this repository or of the benchmark outside the listed
// modules, where attribution stops.
func moduleOf(fn string) (mod string, terminal bool) {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "dismem/internal/"):
		return path.Base(pkg), true
	case strings.HasPrefix(pkg, "dismem/") || pkg == "dismem" || pkg == "main":
		return "", true
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime", true
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" || pkg == "syscall":
		return "net", true
	}
	return pkg, false
}

// pprof protobuf decoding: just the fields attribution needs.

type profSample struct {
	locs []uint64
	ns   int64
}

type decodedProfile struct {
	samples []profSample
	frames  map[uint64][]string // location id → function names, innermost first
}

func decodeProfile(gz []byte) (*decodedProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		valueIdx  = -1
		typeNames []int64 // sample_type type string indices
		samples   []profSample
		rawVals   [][]int64
		locFns    = map[uint64][]uint64{}
		fnName    = map[uint64]int64{}
	)
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			return eachField(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					typeNames = append(typeNames, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s profSample
			var vals []int64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return eachVarint(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			rawVals = append(rawVals, vals)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, t := range typeNames {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := &decodedProfile{frames: map[uint64][]string{}}
	for i, s := range samples {
		if valueIdx < len(rawVals[i]) {
			s.ns = rawVals[i][valueIdx]
		}
		out.samples = append(out.samples, s)
	}
	for id, fns := range locFns {
		for _, fid := range fns {
			if n, ok := fnName[fid]; ok && n >= 0 && int(n) < len(strs) {
				out.frames[id] = append(out.frames[id], strs[n])
			}
		}
	}
	return out, nil
}

// eachField walks a protobuf message, calling fn with each field number and
// either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// eachVarint yields a repeated integer field's values, packed (data) or
// not (v).
func eachVarint(v uint64, data []byte, yield func(uint64)) error {
	if data == nil {
		yield(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		yield(x)
		data = data[n:]
	}
	return nil
}

// report sets prof.<module>.self_ms (per profiled operation), the share of
// samples charged to no listed module, and the sample count.
func (p *profiler) report(r *run, ops int) {
	var total int64
	for _, v := range p.ns {
		total += v
	}
	for _, m := range profModules {
		r.set("prof."+m+".self_ms", float64(p.ns[m])/1e6/float64(max(ops, 1)), "ms/op")
	}
	share := 0.0
	if total > 0 {
		share = 100 * float64(p.ns[""]) / float64(total)
	}
	r.set("prof.other_share", share, "%")
	r.set("prof.samples", float64(p.samples), "count")
}
