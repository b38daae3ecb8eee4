// Command perfbench is the repository benchmark. It drives one of four
// seeded end-to-end workloads through the public entry points of the
// simulator and its analysis stack in a closed loop, checks every
// unit's output, and prints one JSON result line as the last line of
// its output. README.md lists the workloads, the metrics, which layer
// metric should move which end-to-end metric, and the predictions later
// changes are measured against.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash _perfbench/run.sh --workload fig10-smt --seed 1 --seconds 10 --trace 0
//	bash _perfbench/run.sh --workload all --seconds 5
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// makes a traced run instead and reports the per-layer metrics: CPU
// profile shares per module and per rig phase, spans around the public
// calls, and exact per-unit counts.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// maxProcs is GOMAXPROCS for every run: the simulation goroutine and
// the GC share one processor. With two, the GC's background workers
// ran on a second vCPU whose speed varied between runs, and on a
// 2-vCPU host mscan-pipeline's units_per_s spread 0.32 of its median
// over six seeds against 0.07 with one, run in alternation.
const maxProcs = 1

// setups is how many cold set-ups a run times; setup_s is the median.
const setups = 21

func main() {
	if code, child := setupChild(os.Stdout, os.Stderr); child {
		os.Exit(code)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "workload seed; the inputs are generated from it")
	seconds := fs.Float64("seconds", 10, "measured time per workload, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	outdir := fs.String("outdir", filepath.Join(".bench_build", "trace"), "directory for a traced run's CPU profile and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload NAME [--seed N] [--seconds S>0] [--trace 0|1]")
		return 2
	}
	wls := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (have: %s, all)\n", *name, strings.Join(workloadNames(), ", "))
			return 2
		}
		wls = []workload{w}
	}
	runtime.GOMAXPROCS(maxProcs)
	root, err := findRepoRoot()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	opt := options{
		seed:   *seed,
		dur:    time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
		setups: setups,
		root:   root,
		outdir: *outdir,
	}
	for _, w := range wls {
		res, err := measure(w, opt)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		printMetrics(stdout, w.name, res)
		enc, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", enc)
	}
	return 0
}

// options fixes one run.
type options struct {
	seed   int64
	dur    time.Duration
	trace  bool
	setups int
	root   string // repository root: golden files are read from here
	outdir string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	firstErr  error
	// infos are printed with the metrics but are not part of the result.
	infos map[string]metric
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) info(name string, v float64, unit string) {
	if r.infos == nil {
		r.infos = map[string]metric{}
	}
	r.infos[name] = metric{Value: v, Unit: unit}
}

// printMetrics writes one human-readable line per metric, then one per
// info marked "(info)", and the first failure if any unit failed.
func printMetrics(w io.Writer, workload string, r *result) {
	printLines(w, workload, r.Metrics, "")
	printLines(w, workload, r.infos, " (info)")
	fmt.Fprintf(w, "%-16s attempted %d, failed %d\n", workload, r.Attempted, r.Failed)
	if r.firstErr != nil {
		fmt.Fprintf(w, "%-16s first failure: %v\n", workload, r.firstErr)
	}
}

func printLines(w io.Writer, workload string, ms map[string]metric, suffix string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-16s %-26s %14.4f %s%s\n", workload, n, ms[n].Value, ms[n].Unit, suffix)
	}
}

// measure sets the workload up and makes one untraced or traced run.
func measure(w workload, opt options) (*result, error) {
	inst, setupS, err := setUp(w, opt)
	if err != nil {
		return nil, err
	}
	if opt.trace {
		return tracedRun(w, inst, opt)
	}
	ref, err := newRefKernel()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	l := loop(inst, w.round, opt.dur, 0, nil, ref)
	res := newResult(l)
	res.set("setup_s", setupS, "s")
	// The units' wall time over the reference kernel's mean wall time in
	// the same run is the units' time in kernel runs, whatever the
	// host's speed; refStepsPerRefSecond/refSteps kernel runs make one
	// reference second.
	refMean := l.refTime.Seconds() / float64(l.refRuns)
	refSeconds := l.elapsed.Seconds() / refMean * refSteps / refStepsPerRefSecond
	res.set("units_per_ref_s", float64(l.attempted)/refSeconds, "1/ref_s")
	res.set("alloc_mb_per_unit", float64(l.allocBytes)/1e6/float64(l.attempted), "MB")
	res.info("units_per_s", float64(l.attempted)/l.elapsed.Seconds(), "1/s")
	res.info("ref_kernel_ms", 1e3*refMean, "ms")
	return res, nil
}

// setUp times opt.setups cold set-ups of the workload and builds the
// instance this process measures. A cold set-up is a fresh process of
// this program that starts, generates the inputs, loads the expected
// outputs and exits (see setupChild); setup_s is the median of their
// wall times. The instance then runs one unchecked warm-up unit, which
// is timed by neither set-up nor the run.
func setUp(w workload, opt options) (instance, float64, error) {
	var times []float64
	for range opt.setups {
		t, err := coldSetup(w.name, opt.seed)
		if err != nil {
			return nil, 0, fmt.Errorf("cold set-up: %w", err)
		}
		times = append(times, t)
	}
	inst, err := w.setup(opt.seed, opt.root)
	if err != nil {
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	if check, err := inst.run(0, nil); err == nil {
		_, _ = check() // exercised, not counted: only timed units are judged
	}
	return inst, median(times), nil
}

// setupEnv names the workload and seed a set-up-only process sets up.
const setupEnv = "PERFBENCH_SETUP_ONLY"

// coldSetup runs this program as a set-up-only process and returns its
// wall time from start to exit.
func coldSetup(name string, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s:%d", setupEnv, name, seed))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("%w: %s", err, bytes.TrimSpace(out.Bytes()))
	}
	return time.Since(start).Seconds(), nil
}

// setupChild is the set-up-only mode. When setupEnv is set it sets up
// the named workload for the seed, prints its inputs, and reports that
// the process should exit with the returned code.
func setupChild(stdout, stderr io.Writer) (code int, child bool) {
	v, ok := os.LookupEnv(setupEnv)
	if !ok {
		return 0, false
	}
	name, seedStr, _ := strings.Cut(v, ":")
	seed, err := strconv.ParseInt(seedStr, 10, 64)
	w, found := findWorkload(name)
	if err != nil || !found {
		fmt.Fprintf(stderr, "perfbench: bad %s=%q\n", setupEnv, v)
		return 2, true
	}
	root, err := findRepoRoot()
	if err == nil {
		var inst instance
		if inst, err = w.setup(seed, root); err == nil {
			fmt.Fprintln(stdout, inst.inputs())
			return 0, true
		}
	}
	fmt.Fprintln(stderr, "perfbench:", err)
	return 1, true
}

// loopStats is what one closed-loop pass over the units measured.
type loopStats struct {
	attempted, failed int
	firstErr          error
	elapsed           time.Duration // the units' wall time
	refRuns           int           // reference kernel runs
	refTime           time.Duration // their wall time
	counts            counts        // summed over the units
	allocBytes        uint64
	mallocs           uint64
	gcCycles          uint32
}

// add accumulates another pass into l.
func (l *loopStats) add(o loopStats) {
	l.attempted += o.attempted
	l.failed += o.failed
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
	l.elapsed += o.elapsed
	l.refRuns += o.refRuns
	l.refTime += o.refTime
	l.counts.add(o.counts)
	l.allocBytes += o.allocBytes
	l.mallocs += o.mallocs
	l.gcCycles += o.gcCycles
}

// loop runs units one after another, each issued when the previous one
// has returned and been checked. It stops after maxUnits units when
// maxUnits > 0, else at the first whole round after dur. With a
// reference kernel it runs the kernel between units, first and then
// every refEvery of run time, and leaves the kernel's time out of
// elapsed.
func loop(inst instance, round int, dur time.Duration, maxUnits int, sp *spanLog, ref *refKernel) loopStats {
	var l loopStats
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var lastRef time.Time
	for i := 0; ; i++ {
		if maxUnits > 0 && i == maxUnits {
			break
		}
		if maxUnits == 0 && i%round == 0 && time.Since(start) >= dur {
			break
		}
		if ref != nil && time.Since(lastRef) >= refEvery {
			l.refTime += ref.run()
			l.refRuns++
			lastRef = time.Now()
		}
		t0 := time.Now()
		check, err := inst.run(i, sp)
		t1 := time.Now()
		if err == nil {
			var c counts
			c, err = check()
			l.counts.add(c)
		}
		t2 := time.Now()
		sp.record("unit", "run", i, t0, t1)
		sp.record("check", "run", i, t1, t2)
		l.attempted++
		if err != nil {
			l.failed++
			if l.firstErr == nil {
				l.firstErr = fmt.Errorf("unit %d: %w", i, err)
			}
		}
	}
	l.elapsed = time.Since(start) - l.refTime
	runtime.ReadMemStats(&after)
	l.allocBytes = after.TotalAlloc - before.TotalAlloc
	l.mallocs = after.Mallocs - before.Mallocs
	l.gcCycles = after.NumGC - before.NumGC
	return l
}

func newResult(ls ...loopStats) *result {
	r := &result{Metrics: map[string]metric{}}
	for _, l := range ls {
		r.Attempted += l.attempted
		r.Failed += l.failed
		if r.firstErr == nil {
			r.firstErr = l.firstErr
		}
	}
	r.Correct = r.Failed == 0
	return r
}

// traceWindows is how many untraced-then-traced window pairs a traced
// run alternates between.
const traceWindows = 10

// tracedRun measures the per-layer metrics. It runs one untraced round
// for the exact per-unit counts, then alternates untraced and traced
// windows of whole rounds over the run time. Pairing the windows keeps
// the host's own speed drift out of the tracing overhead. The traced
// windows record spans and CPU profiles, written to opt.outdir when
// the run ends.
func tracedRun(w workload, inst instance, opt options) (*result, error) {
	cp := loop(inst, w.round, 0, w.round, nil, nil)
	window := opt.dur / (2 * traceWindows)
	sp := &spanLog{}
	var (
		plain, traced loopStats
		profs         [][]byte
		samples       []sample
	)
	for range traceWindows {
		plain.add(loop(inst, w.round, window, 0, nil, nil))
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
		traced.add(loop(inst, w.round, window, 0, sp, nil))
		pprof.StopCPUProfile()
		s, err := decodeProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		samples = append(samples, s...)
		profs = append(profs, prof.Bytes())
	}
	if len(samples) == 0 {
		return nil, errors.New("CPU profiles hold no samples")
	}
	if err := writeTrace(opt, w.name, profs, sp); err != nil {
		return nil, err
	}

	res := newResult(cp, plain, traced)
	self, phase := attribute(samples)
	for _, l := range layerNames() {
		res.set("self."+l+"_pct", self[l], "%")
	}
	for _, p := range phases {
		res.set("phase."+p.name+"_pct", phase[p.name], "%")
	}
	for _, s := range spanNames {
		res.set("span."+s+"_ms", median(sp.durations(s)), "ms")
	}
	n := float64(cp.attempted)
	c := cp.counts
	res.set("count.sim_cycles", float64(c.simCycles)/n, "count")
	res.set("count.replays", float64(c.replays)/n, "count")
	res.set("count.faults", float64(c.faults)/n, "count")
	res.set("count.verify_steps", float64(c.verifySteps)/n, "count")
	res.set("count.cert_trials", float64(c.certTrials)/n, "count")
	res.set("count.unexplained", float64(c.unexplained)/n, "count")
	res.set("count.mallocs", float64(cp.mallocs)/n, "count")
	res.set("count.gc_cycles", float64(cp.gcCycles)/n, "count")

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	res.set("host.peak_rss_mb", float64(ru.Maxrss)/1024, "MB") // Linux reports KiB
	plainRate := float64(plain.attempted) / plain.elapsed.Seconds()
	tracedRate := float64(traced.attempted) / traced.elapsed.Seconds()
	res.set("trace_overhead_pct", 100*(plainRate-tracedRate)/plainRate, "%")
	res.set("fail_frac", float64(res.Failed)/float64(res.Attempted), "ratio")
	return res, nil
}

// writeTrace writes the traced windows' CPU profiles, one file each
// (go tool pprof merges them when given all), and the spans.
func writeTrace(opt options, workload string, profs [][]byte, sp *spanLog) error {
	if err := os.MkdirAll(opt.outdir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(opt.outdir, fmt.Sprintf("%s-seed%d", workload, opt.seed))
	for i, prof := range profs {
		if err := os.WriteFile(fmt.Sprintf("%s.w%02d.cpu.pprof", base, i), prof, 0o644); err != nil {
			return err
		}
	}
	enc, err := json.MarshalIndent(sp.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".spans.json", enc, 0o644)
}

// spanNames are the spans the traced run reports, by median duration:
// every unit and its output check, and on mscan-pipeline the three
// public calls a unit makes.
var spanNames = []string{"unit", "check", "static", "verify", "sanitize"}

// span is one timed call: its name, the span that caused it, and the
// unit both belong to.
type span struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent"`
	Unit    int     `json:"unit"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// spanLog keeps spans in memory; a nil log records nothing.
type spanLog struct {
	origin time.Time
	spans  []span
}

func (s *spanLog) record(name, parent string, unit int, start, end time.Time) {
	if s == nil {
		return
	}
	if s.origin.IsZero() {
		s.origin = start
	}
	s.spans = append(s.spans, span{
		Name:    name,
		Parent:  parent,
		Unit:    unit,
		StartUS: float64(start.Sub(s.origin).Nanoseconds()) / 1e3,
		DurUS:   float64(end.Sub(start).Nanoseconds()) / 1e3,
	})
}

// durations returns the named spans' durations in milliseconds.
func (s *spanLog) durations(name string) []float64 {
	var out []float64
	for _, sp := range s.spans {
		if sp.Name == name {
			out = append(out, sp.DurUS/1e3)
		}
	}
	return out
}

// median returns the median of xs, or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// findRepoRoot walks up from the working directory to the directory
// holding the simulator's go.mod.
func findRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(b, []byte("module microscope\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no microscope go.mod in the working directory or above it")
		}
		dir = parent
	}
}
