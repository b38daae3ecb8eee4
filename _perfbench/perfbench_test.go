package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

// TestMain lets the cold set-ups that measure() times run this test
// binary in set-up-only mode.
func TestMain(m *testing.M) {
	if code, child := setupChild(os.Stdout, os.Stderr); child {
		os.Exit(code)
	}
	os.Exit(m.Run())
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := findRepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// oneRound runs one whole round of a fresh instance for seed and
// returns its inputs and the counts the units reported.
func oneRound(t *testing.T, w workload, seed int64) (string, counts) {
	t.Helper()
	inst, err := w.setup(seed, repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	l := loop(inst, w.round, 0, w.round, nil, nil)
	if l.failed > 0 {
		t.Fatalf("%s seed %d: %v", w.name, seed, l.firstErr)
	}
	return inst.inputs(), l.counts
}

// The seed alone fixes the inputs and therefore the exact counts; a
// different seed changes the inputs of every seeded workload.
func TestSeededInputs(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in1, c1 := oneRound(t, w, 7)
			in2, c2 := oneRound(t, w, 7)
			if in1 != in2 {
				t.Errorf("seed 7 gave different inputs:\n%s\n%s", in1, in2)
			}
			if c1 != c2 {
				t.Errorf("seed 7 gave different counts: %+v vs %+v", c1, c2)
			}
			if c1 == (counts{}) {
				t.Error("a round reported no work")
			}
			if w.name == "tournament" {
				return // the roster is committed; the seed is unused
			}
			in3, _ := oneRound(t, w, 8)
			if in3 == in1 {
				t.Errorf("seeds 7 and 8 gave the same inputs: %s", in1)
			}
		})
	}
}

// corrupt breaks one expected output of each workload.
var corrupt = map[string]func(instance){
	"fig10-smt":    func(i instance) { i.(*fig10Inst).wantDetected = false },
	"aes-keysweep": func(i instance) { i.(*aesInst).wantMatch = false },
	"tournament":   func(i instance) { g := i.(*tournInst).golden; g[len(g)/2] ^= 1 },
	"mscan-pipeline": func(i instance) {
		i.(*mscanInst).golden["aes"] = "PROVEN-SAFE"
	},
}

var endToEnd = []string{"setup_s", "units_per_ref_s", "alloc_mb_per_unit"}

// A corrupted expectation makes the affected units count as failed,
// and the run still reports every metric.
func TestCorruptedExpectationFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			orig := w.setup
			w.setup = func(seed int64, root string) (instance, error) {
				inst, err := orig(seed, root)
				if err == nil {
					corrupt[w.name](inst)
				}
				return inst, err
			}
			opt := options{seed: 1, dur: time.Millisecond, setups: 1, root: repoRoot(t), outdir: t.TempDir()}
			res, err := measure(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			// mscan-pipeline corrupts one victim of seven.
			wantFailed := res.Attempted
			if w.name == "mscan-pipeline" {
				wantFailed = res.Attempted / w.round
			}
			if res.Correct || res.Failed != wantFailed || res.firstErr == nil {
				t.Errorf("correct %v, failed %d of %d, want %d failed", res.Correct, res.Failed, res.Attempted, wantFailed)
			}
			for _, m := range endToEnd {
				v, ok := res.Metrics[m]
				if !ok {
					t.Errorf("metric %s missing", m)
				} else if !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("metric %s = %v, want a positive finite value", m, v.Value)
				}
			}
		})
	}
}

// A traced run reports every per-layer metric, with self shares that
// add up to 100.
func TestTracedRunReportsLayers(t *testing.T) {
	w, _ := findWorkload("mscan-pipeline")
	opt := options{seed: 1, dur: time.Second, trace: true, setups: 1, root: repoRoot(t), outdir: t.TempDir()}
	res, err := measure(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal(res.firstErr)
	}
	var self float64
	for _, l := range layerNames() {
		self += res.Metrics["self."+l+"_pct"].Value
	}
	if math.Abs(self-100) > 1e-6 {
		t.Errorf("self shares sum to %v", self)
	}
	want := []string{"count.sim_cycles", "count.replays", "count.faults", "count.verify_steps",
		"count.cert_trials", "count.unexplained", "count.mallocs", "count.gc_cycles",
		"host.peak_rss_mb", "trace_overhead_pct", "fail_frac"}
	for _, p := range phases {
		want = append(want, "phase."+p.name+"_pct")
	}
	for _, s := range spanNames {
		want = append(want, "span."+s+"_ms")
	}
	for _, m := range want {
		if _, ok := res.Metrics[m]; !ok {
			t.Errorf("metric %s missing", m)
		}
	}
	if res.Metrics["span.verify_ms"].Value <= 0 || res.Metrics["count.verify_steps"].Value <= 0 {
		t.Error("mscan-pipeline reported no verifier work")
	}
}

// protoEnc is a minimal protobuf writer for synthetic profiles.
type protoEnc struct{ b []byte }

func (e *protoEnc) varint(num int, v uint64) {
	e.b = binary.AppendUvarint(e.b, uint64(num)<<3)
	e.b = binary.AppendUvarint(e.b, v)
}

func (e *protoEnc) bytes(num int, p []byte) {
	e.b = binary.AppendUvarint(e.b, uint64(num)<<3|2)
	e.b = binary.AppendUvarint(e.b, uint64(len(p)))
	e.b = append(e.b, p...)
}

func (e *protoEnc) packed(num int, vs ...uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	e.bytes(num, p)
}

// synthProfile builds a gzipped profile with one function per location
// and one sample per stack (leaf first), each of weight w[i].
func synthProfile(t *testing.T, stacks [][]frame, w []int64) []byte {
	t.Helper()
	var prof protoEnc
	strs := []string{""}
	intern := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	ids := map[frame]uint64{}
	for i, st := range stacks {
		var locs []uint64
		for _, f := range st {
			id, ok := ids[f]
			if !ok {
				id = uint64(len(ids) + 1)
				ids[f] = id
				var fn, line, loc protoEnc
				fn.varint(1, id)
				fn.varint(2, intern(f.fn))
				fn.varint(4, intern(f.file))
				prof.bytes(5, fn.b)
				line.varint(1, id)
				loc.varint(1, id)
				loc.bytes(4, line.b)
				prof.bytes(4, loc.b)
			}
			locs = append(locs, id)
		}
		var s protoEnc
		if len(locs) == 1 {
			s.varint(1, locs[0]) // unpacked, as the runtime writes short lists
		} else {
			s.packed(1, locs...)
		}
		s.packed(2, uint64(w[i]), uint64(w[i])*10_000_000)
		prof.bytes(2, s.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestAttributeSyntheticProfile(t *testing.T) {
	var (
		main     = frame{fn: "main.main", file: "/x/_perfbench/main.go"}
		forkRig  = frame{fn: "microscope/attack/experiments.(*Rig).Fork", file: "/x/attack/experiments/checkpoint.go"}
		restore  = frame{fn: "microscope/sim/snapshot.Restore", file: "/x/sim/snapshot/snapshot.go"}
		coreRun  = frame{fn: "microscope/sim/cpu.(*Core).Run", file: "/x/sim/cpu/core.go"}
		issue    = frame{fn: "microscope/sim/pipeline.(*ROB).Issue", file: "/x/sim/pipeline/rob.go"}
		memoHash = frame{fn: "microscope/sim/cache.MemoHashSet", file: "/x/sim/cache/memo.go"}
		memmove  = frame{fn: "runtime.memmove", file: "/go/src/runtime/memmove.s"}
		growsl   = frame{fn: "runtime.growslice", file: "/go/src/runtime/slice.go"}
		mallocgc = frame{fn: "runtime.mallocgc", file: "/go/src/runtime/malloc.go"}
		scanobj  = frame{fn: "runtime.scanobject", file: "/go/src/runtime/mgcmark.go"}
		assist   = frame{fn: "runtime.gcAssistAlloc", file: "/go/src/runtime/mgcmark.go"}
		jsonEnc  = frame{fn: "encoding/json.Marshal", file: "/go/src/encoding/json/encode.go"}
	)
	stacks := [][]frame{
		{issue, coreRun, main},                     // sim.pipeline, run
		{memoHash, coreRun, main},                  // sim.cache, run + memo
		{memmove, restore, forkRig, main},          // builtin: caller's sim.snapshot, fork
		{memmove, growsl, coreRun, main},           // runtime.alloc, run
		{scanobj, assist, mallocgc, forkRig, main}, // runtime.gc, fork
		{jsonEnc, main},                            // other
	}
	w := []int64{4, 2, 1, 1, 1, 1}
	samples, err := decodeProfile(synthProfile(t, stacks, w))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(stacks))
	}
	for i, s := range samples {
		if s.weight != w[i] || len(s.stack) != len(stacks[i]) || s.stack[0] != stacks[i][0] {
			t.Errorf("sample %d decoded as %+v", i, s)
		}
	}
	self, phase := attribute(samples)
	wantSelf := map[string]float64{"sim.pipeline": 40, "sim.cache": 20, "sim.snapshot": 10,
		layerAlloc: 10, layerGC: 10, layerOther: 10}
	var sum float64
	for _, l := range layerNames() {
		sum += self[l]
		if math.Abs(self[l]-wantSelf[l]) > 1e-9 {
			t.Errorf("self %s = %v, want %v", l, self[l], wantSelf[l])
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("self shares sum to %v", sum)
	}
	wantPhase := map[string]float64{"run": 70, "memo": 20, "fork": 20}
	for _, p := range phases {
		if math.Abs(phase[p.name]-wantPhase[p.name]) > 1e-9 {
			t.Errorf("phase %s = %v, want %v", p.name, phase[p.name], wantPhase[p.name])
		}
	}
}

// The decoder reads the profiles runtime/pprof actually writes.
func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := uint64(1)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, f := range s.stack {
			found = found || f.fn == "perfbench.TestDecodeRuntimeProfile"
		}
	}
	if !found || x == 0 {
		t.Errorf("no sample of %d names the test function", len(samples))
	}
}
