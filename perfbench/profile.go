package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzipped
// protocol buffers in the profile.proto format) far enough to group
// samples by package: samples, locations, functions and the string
// table.

// pbField is one decoded protocol-buffer field.
type pbField struct {
	num  int
	wire int
	v    uint64 // varint and fixed values
	b    []byte // length-delimited payload
}

var errPB = errors.New("malformed profile")

func pbVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errPB
}

// pbFields splits a message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n, err = pbVarint(b); err != nil {
				return nil, err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errPB
			}
			b = b[8:]
		case 2:
			l, n, err := pbVarint(b)
			if err != nil || uint64(len(b)-n) < l {
				return nil, errPB
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errPB
			}
			b = b[4:]
		default:
			return nil, errPB
		}
		out = append(out, f)
	}
	return out, nil
}

// pbUints reads a repeated integer field, packed or not.
func pbUints(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	for b := f.b; len(b) > 0; {
		v, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// cpuProfile is a decoded CPU profile: each sample's call stack as
// function names, leaf first (inlined frames expanded), with its count.
type cpuProfile struct {
	stacks [][]string
	counts []int64
}

func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFuncs := map[uint64][]uint64{}
	type sample struct{ locs, vals []uint64 }
	var samples []sample
	for _, f := range top {
		switch f.num {
		case 2: // Sample
			var s sample
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			for _, sf := range fs {
				switch sf.num {
				case 1:
					s.locs, err = pbUints(sf, s.locs)
				case 2:
					s.vals, err = pbUints(sf, s.vals)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.v
				case 4: // Line
					ls, err := pbFields(lf.b)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = ff.v
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.b))
		}
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.counts = append(p.counts, int64(s.vals[0]))
	}
	return p, nil
}

// modulePrefix is the import-path prefix of the program's packages.
const modulePrefix = "repro/internal/"

// gcFrames mark samples spent in the garbage collector: background mark
// workers, mark assists charged to allocating goroutines, and sweeping.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// samplePackage attributes one stack: to "gc" when it is garbage
// collection; otherwise to the innermost frame in one of the program's
// packages (so runtime and standard-library work — copies, allocation,
// map access, mutexes — counts toward the layer that asked for it); to
// "bench" for the benchmark's own code (package main, or its import
// path under go test); else to "other". The serving
// client lives in package server but runs on the client side, so its
// methods count as "client".
func samplePackage(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if fn == g {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, modulePrefix+"server.(*Client)") {
			return "client"
		}
		if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/perfbench.") {
			return "bench"
		}
	}
	return "other"
}

// packageShares adds each sample's count to its package in into and
// returns the profile's total.
func (p *cpuProfile) packageShares(into map[string]int64) int64 {
	var total int64
	for i, st := range p.stacks {
		into[samplePackage(st)] += p.counts[i]
		total += p.counts[i]
	}
	return total
}

// profiler records a CPU profile of one timed loop.
type profiler struct{ buf bytes.Buffer }

func (p *profiler) start() error {
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

func (p *profiler) stop() (*cpuProfile, error) {
	pprof.StopCPUProfile()
	return parseProfile(p.buf.Bytes())
}
