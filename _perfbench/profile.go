package main

// A small decoder for the gzipped protocol-buffer profiles runtime/pprof
// writes, and the attribution of their samples to the repository's
// modules (self time) and rig phases (time under a public entry point).
// Field numbers are those of the pprof profile.proto.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strings"
)

// frame is one function on a sampled stack.
type frame struct {
	fn   string
	file string
}

// sample is one profile sample: its weight and its stack, leaf first.
type sample struct {
	weight int64
	stack  []frame
}

var errProto = errors.New("malformed profile")

// decodeProfile parses a gzipped pprof profile. A sample's weight is its
// first value (the sample count for CPU profiles).
func decodeProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		weight int64
	}
	var (
		strs  []string
		funcs = map[uint64][2]uint64{} // id -> name, file string indexes
		locs  = map[uint64][]uint64{}  // id -> function ids, innermost first
		raws  []rawSample
	)
	err = fields(raw, func(num int, wire uint64, v uint64, p []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			first := true
			err := fields(p, func(num int, wire uint64, v uint64, p []byte) error {
				switch num {
				case 1: // location_id
					ids, err := varints(wire, v, p)
					s.locs = append(s.locs, ids...)
					return err
				case 2: // value
					vals, err := varints(wire, v, p)
					if first && len(vals) > 0 {
						s.weight, first = int64(vals[0]), false
					}
					return err
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(p, func(num int, wire uint64, v uint64, p []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(p, func(num int, wire uint64, v uint64, p []byte) error {
						if num == 1 { // function_id
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id, name, file uint64
			err := fields(p, func(num int, wire uint64, v uint64, p []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				case 4:
					file = v
				}
				return nil
			})
			funcs[id] = [2]uint64{name, file}
			return err
		case 6: // string_table
			strs = append(strs, string(p))
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
	out := make([]sample, 0, len(raws))
	for _, r := range raws {
		s := sample{weight: r.weight}
		for _, l := range r.locs {
			for _, f := range locs[l] {
				fn := funcs[f]
				s.stack = append(s.stack, frame{fn: str(fn[0]), file: str(fn[1])})
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// fields calls f for each field of the protobuf message b: varint
// fields carry their value in v, length-delimited ones their bytes in p.
// Fixed-width fields are skipped.
func fields(b []byte, f func(num int, wire uint64, v uint64, p []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var p []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errProto
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			p, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errProto
		}
		if err := f(num, wire, v, p); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated integer field occurrence, packed or not.
func varints(wire, v uint64, p []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(p) > 0 {
		x, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, errProto
		}
		out, p = append(out, x), p[n:]
	}
	return out, nil
}

// modules maps the repository's packages to the layer names of the
// self.* metrics; subpackages belong to their parent's layer.
var modules = []struct{ pkg, layer string }{
	{"microscope/sim/cpu", "sim.cpu"},
	{"microscope/sim/pipeline", "sim.pipeline"},
	{"microscope/sim/cache", "sim.cache"},
	{"microscope/sim/tlb", "sim.tlb"},
	{"microscope/sim/mem", "sim.mem"},
	{"microscope/sim/kernel", "sim.kernel"},
	{"microscope/sim/snapshot", "sim.snapshot"},
	{"microscope/sim/sanitizer", "sim.sanitizer"},
	{"microscope/attack/microscope", "attack.microscope"},
	{"microscope/attack/defense", "attack.defense"},
	{"microscope/analysis/verify", "analysis.verify"},
	{"microscope/analysis/static", "analysis.static"},
}

const (
	layerGC    = "runtime.gc"
	layerAlloc = "runtime.alloc"
	layerOther = "other"
)

// layerNames lists every self.* layer, in report order.
func layerNames() []string {
	var out []string
	for _, m := range modules {
		out = append(out, m.layer)
	}
	return append(out, layerGC, layerAlloc, layerOther)
}

// Runtime functions (package prefix removed) that mark a stack as
// garbage collection or as allocation.
var (
	gcFuncs = []string{"gc", "_GC", "bgsweep", "bgscavenge", "markroot", "scan", "greyobject",
		"findObject", "wbBuf", "sweepone", "deductSweepCredit", "(*gcWork)", "(*gcBits)",
		"(*mspan).sweep", "(*sweepLocked)", "(*mheap).reclaim"}
	allocFuncs = []string{"mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap",
		"(*mcache)", "(*mcentral)", "(*mheap).alloc", "rawstring", "rawbyteslice", "rawruneslice",
		"concatstring", "slicebytetostring", "stringtoslicebyte", "convT"}
)

// selfLayer names the layer a sample's self time belongs to. A leaf in
// a repository package is that package's layer. A runtime leaf is
// runtime.gc or runtime.alloc when a GC or allocation function lies on
// the runtime part of the stack; otherwise it is a builtin (copy, map
// access, ...) and belongs to the first caller outside the runtime.
// Everything else — the standard library, packages without a layer of
// their own, the benchmark itself — is "other".
func selfLayer(stack []frame) string {
	for _, f := range stack {
		pkg := pkgOf(f.fn)
		if !isRuntime(pkg) {
			return moduleOf(pkg)
		}
		name := strings.TrimPrefix(f.fn, pkg+".")
		switch {
		case hasPrefix(name, gcFuncs):
			return layerGC
		case hasPrefix(name, allocFuncs):
			return layerAlloc
		}
	}
	return layerOther
}

func moduleOf(pkg string) string {
	for _, m := range modules {
		if pkg == m.pkg || strings.HasPrefix(pkg, m.pkg+"/") {
			return m.layer
		}
	}
	return layerOther
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/")
}

func hasPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// pkgOf returns the package path of a symbol name such as
// "microscope/sim/cpu.(*Core).Run.func1": it ends at the first dot
// after the last slash (type parameters in brackets are ignored).
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// phase is a rig phase: the samples with one of its entry points (or a
// frame in one of its files) anywhere on the stack.
type phase struct {
	name string
	// funcs are entry points; each matches the function itself, its
	// closures, and — for a bare package path — the whole package.
	funcs []string
	file  *regexp.Regexp
}

const (
	expPkg = "microscope/attack/experiments."
	modPkg = "microscope/attack/microscope."
)

var phases = []phase{
	{name: "boot", funcs: []string{expPkg + "NewRig", "microscope/sim/cpu.NewCore",
		"microscope/sim/cache.NewHierarchy", "microscope/sim/mem.NewPhysMem"}},
	{name: "fork", funcs: []string{expPkg + "(*Rig).Fork", expPkg + "(*Checkpoint).Boot",
		expPkg + "(*Rig).Restore", "microscope/sim/snapshot"}},
	{name: "install", funcs: []string{"microscope/attack/victim.(*Layout).Install",
		modPkg + "(*Module).Install", expPkg + "(*Rig).AddMonitor"}},
	{name: "run", funcs: []string{"microscope/sim/cpu.(*Core).Run", "microscope/sim/cpu.(*Core).Step",
		"microscope/sim/cpu.(*Core).RunUntil"}},
	{name: "fault", funcs: []string{"microscope/sim/kernel.(*Kernel).HandlePageFault"}},
	{name: "probe", funcs: []string{modPkg + "(*Module).PrimeAddrs", modPkg + "(*Module).ProbeAddrs",
		"microscope/sim/cache.(*Hierarchy).Probe", "microscope/sim/cache.(*Hierarchy).FlushAddr",
		"microscope/sim/cache.(*Hierarchy).FlushAll"}},
	{name: "memo", file: regexp.MustCompile(`(^|/)sim/[^/]+/memo\.go$`)},
	{name: "verify", funcs: []string{"microscope/analysis/verify.Verify"}},
	{name: "sanitize", funcs: []string{expPkg + "RunSpecSan"}},
	{name: "static", funcs: []string{"microscope/analysis/static.Analyze"}},
}

func (p phase) on(stack []frame) bool {
	for _, f := range stack {
		if p.file != nil && p.file.MatchString(f.file) {
			return true
		}
		for _, fn := range p.funcs {
			if f.fn == fn || strings.HasPrefix(f.fn, fn+".") {
				return true
			}
		}
	}
	return false
}

// attribute returns, in percent of the total sample weight, each
// layer's self time and each phase's share.
func attribute(samples []sample) (self, phase map[string]float64) {
	self, phase = map[string]float64{}, map[string]float64{}
	var total float64
	for _, s := range samples {
		w := float64(s.weight)
		total += w
		self[selfLayer(s.stack)] += w
		for _, p := range phases {
			if p.on(s.stack) {
				phase[p.name] += w
			}
		}
	}
	if total == 0 {
		return self, phase
	}
	for k := range self {
		self[k] *= 100 / total
	}
	for k := range phase {
		phase[k] *= 100 / total
	}
	return self, phase
}
