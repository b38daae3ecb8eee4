// Package bench is the reproduction harness: one benchmark per table and
// figure of the paper's evaluation, plus the ablation studies listed in
// DESIGN.md §6. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark re-runs the corresponding experiment and reports the
// figures-of-merit as custom metrics (b.ReportMetric), so the "rows" the
// paper reports can be regenerated from the bench output. EXPERIMENTS.md
// records paper-vs-measured for each.
package bench

import (
	"flag"
	"reflect"
	"testing"
	"time"

	"microscope/analysis/sidechan"
	"microscope/attack/baseline"
	"microscope/attack/defense"
	"microscope/attack/experiments"
	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/attack/replay"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/isa"
	"microscope/sim/mem"
)

// sweepWorkers pins the parallel worker count of the sweep benchmarks.
// Deliberately a fixed default rather than the machine's core count
// (runtime.NumCPU is banned by simlint's determinism analyzer, and a machine-derived count
// would make the committed BENCH_*.json metrics incomparable across
// hosts): every sweep benchmark runs the same schedule everywhere, and
// the count it actually used is reported in its metric block. Override
// with -sweep-workers to measure scaling on a specific machine.
var sweepWorkers = flag.Int("sweep-workers", 4,
	"pinned parallel worker count for the sweep benchmarks")

// reportSweepWorkers puts the pinned worker count into a sweep
// benchmark's metric block, so committed bench JSON records the
// schedule its numbers were measured under.
func reportSweepWorkers(b *testing.B, workers int) {
	b.ReportMetric(float64(workers), "workers")
}

// reportSimThroughput reports how many millions of simulated cycles the
// benchmark pushed through per wall-clock second — the simulator-speed
// figure the fast-forward and allocation work tracks across PRs (see
// docs/performance.md). simCycles is the total across all b.N iterations.
func reportSimThroughput(b *testing.B, simCycles uint64) {
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(simCycles)/1e6/secs, "sim-mcycles-per-sec")
	}
}

// BenchmarkTable1Taxonomy regenerates the Table 1 classification and
// verifies MicroScope's unique cell.
func BenchmarkTable1Taxonomy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		attacks := sidechan.Table1()
		if _, unique := sidechan.UniqueCell(attacks,
			sidechan.FineGrain, sidechan.HighResolution, false); !unique {
			b.Fatal("taxonomy broken")
		}
		_ = sidechan.FormatTable1(attacks)
	}
}

// BenchmarkTable2API exercises the five user-API operations end to end.
func BenchmarkTable2API(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rig, err := platform.New(cpu.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		l := victim.LoopSecret([]byte{1, 2})
		if err := rig.InstallVictim(l); err != nil {
			b.Fatal(err)
		}
		u := rig.Module.User(rig.Victim)
		u.ProvideReplayHandle(l.Sym("handle"))
		u.ProvidePivot(l.Sym("pivot"))
		u.ProvideMonitorAddr(l.Sym("probe"))
		if err := u.InitiatePageWalk(l.Sym("probe"), 2); err != nil {
			b.Fatal(err)
		}
		u.Recipe().MaxReplays = 3
		if err := u.InitiatePageFault(l.Sym("handle")); err != nil {
			b.Fatal(err)
		}
		l.Start(rig.Kernel, 0)
		if err := rig.Run(20_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Timeline replays a victim and regenerates the Fig. 3
// replayer/victim timeline.
func BenchmarkFig3Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rig, err := platform.New(cpu.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		l := victim.ControlFlowSecret(true)
		if err := rig.InstallVictim(l); err != nil {
			b.Fatal(err)
		}
		rec := &microscope.Recipe{
			Name: "fig3", Victim: rig.Victim, Handle: l.Sym("handle"), MaxReplays: 4,
		}
		if err := rig.Module.Install(rec); err != nil {
			b.Fatal(err)
		}
		l.Start(rig.Kernel, 0)
		if err := rig.Run(10_000_000); err != nil {
			b.Fatal(err)
		}
		if len(rig.Module.Timeline()) < 8 {
			b.Fatal("timeline too short")
		}
	}
}

// BenchmarkFig5SingleSecret runs the subnormal-divide detection attack.
func BenchmarkFig5SingleSecret(b *testing.B) {
	var last *experiments.SubnormalResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSubnormal(1500)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Detected() {
			b.Fatal("subnormal not detected")
		}
		last = res
	}
	b.ReportMetric(float64(last.MaxSubnormal), "max-subnormal-cycles")
	b.ReportMetric(float64(last.MaxNormal), "max-normal-cycles")
}

// BenchmarkFig9ExecPath measures the kernel fault path with the module
// loaded (Fig. 9 steps 1-7) per delivered fault.
func BenchmarkFig9ExecPath(b *testing.B) {
	rig, err := platform.New(cpu.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	l := victim.ControlFlowSecret(false)
	if err := rig.InstallVictim(l); err != nil {
		b.Fatal(err)
	}
	rec := &microscope.Recipe{Name: "fig9", Victim: rig.Victim, Handle: l.Sym("handle")}
	rec.MaxReplays = 1 << 30
	done := 0
	rec.OnReplay = func(ev microscope.Event) microscope.Decision {
		done = ev.Replays
		return microscope.Replay
	}
	if err := rig.Module.Install(rec); err != nil {
		b.Fatal(err)
	}
	l.Start(rig.Kernel, 0)
	b.ResetTimer()
	for done < b.N && rig.Core.Cycle() < uint64(b.N)*100_000+10_000_000 {
		rig.Core.Step()
	}
	if done < b.N {
		b.Fatalf("only %d faults in budget", done)
	}
}

// BenchmarkFig10PortContention runs the headline experiment and reports
// the separation factor (paper: 16x).
func BenchmarkFig10PortContention(b *testing.B) {
	cfg := experiments.DefaultFig10Config()
	cfg.Samples = 4000
	var last *experiments.Fig10Result
	var simCycles uint64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.SecretDetected() {
			b.Fatal("secret not detected")
		}
		simCycles += res.Mul.Cycles + res.Div.Cycles
		last = res
	}
	b.ReportMetric(last.SeparationX, "separation-x")
	b.ReportMetric(float64(last.MulOver), "mul-over")
	b.ReportMetric(float64(last.DivOver), "div-over")
	b.ReportMetric(float64(last.Threshold), "threshold-cycles")
	reportSimThroughput(b, simCycles)
}

// BenchmarkFig11AESReplay runs the three-replay Td1 probe experiment.
func BenchmarkFig11AESReplay(b *testing.B) {
	cfg := experiments.DefaultAESConfig()
	var last *experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Consistent() {
			b.Fatal("primed replays inconsistent")
		}
		last = res
	}
	b.ReportMetric(float64(last.Replay0Bands), "replay0-bands")
	b.ReportMetric(float64(len(experiments.LinesOf(last.Truth))), "hot-lines")
}

// BenchmarkSec62FullExtraction runs the complete single-run AES trace
// extraction and reports the fault budget.
func BenchmarkSec62FullExtraction(b *testing.B) {
	cfg := experiments.DefaultAESConfig()
	var last *experiments.ExtractionResult
	var simCycles uint64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAESExtraction(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if ok, diff := res.Match(); !ok {
			b.Fatal(diff)
		}
		simCycles += res.Cycles
		last = res
	}
	b.ReportMetric(float64(last.Faults), "faults")
	b.ReportMetric(float64(last.Rounds), "rounds")
	reportSimThroughput(b, simCycles)
}

// BenchmarkSweepAESKeyExtraction measures the analysis/sweep worker pool
// on the heaviest workload: the 8-trial first-round key-byte recovery
// (one full §6.2 extraction per trial). It runs the identical sweep
// serially (workers=1) and in parallel (workers=-sweep-workers),
// verifies the results are equal — the sweep determinism guarantee —
// and reports both wall-clock times plus the speedup, so the
// parallel-vs-serial trajectory lands in the bench history. On a
// single-core runner the speedup metric sits near 1x by construction.
func BenchmarkSweepAESKeyExtraction(b *testing.B) {
	cfg := experiments.DefaultAESConfig()
	const trials = 8
	var serialNs, parallelNs float64
	for i := 0; i < b.N; i++ {
		start := time.Now()
		serial, err := experiments.RunAESKeyByteSweep(cfg, trials, 1)
		if err != nil {
			b.Fatal(err)
		}
		serialNs = float64(time.Since(start).Nanoseconds())
		start = time.Now()
		parallel, err := experiments.RunAESKeyByteSweep(cfg, trials, *sweepWorkers)
		if err != nil {
			b.Fatal(err)
		}
		parallelNs = float64(time.Since(start).Nanoseconds())
		if !reflect.DeepEqual(serial, parallel) {
			b.Fatal("parallel sweep diverged from serial run")
		}
		if !parallel.Complete() {
			b.Fatal("key-byte recovery incomplete")
		}
	}
	b.ReportMetric(serialNs, "serial-ns")
	b.ReportMetric(parallelNs, "parallel-ns")
	b.ReportMetric(serialNs/parallelNs, "sweep-speedup-x")
	reportSweepWorkers(b, *sweepWorkers)
}

// BenchmarkSweepFig10Trials measures the repeated-trial Fig. 10 sweep
// (the LEASH-style detection-study workload) serial vs parallel.
func BenchmarkSweepFig10Trials(b *testing.B) {
	cfg := experiments.DefaultFig10Config()
	cfg.Samples = 1000
	const trials = 4
	var serialNs, parallelNs float64
	for i := 0; i < b.N; i++ {
		cfg.Workers = 1
		start := time.Now()
		serial, err := experiments.RunFig10Sweep(cfg, trials)
		if err != nil {
			b.Fatal(err)
		}
		serialNs = float64(time.Since(start).Nanoseconds())
		cfg.Workers = *sweepWorkers
		start = time.Now()
		parallel, err := experiments.RunFig10Sweep(cfg, trials)
		if err != nil {
			b.Fatal(err)
		}
		parallelNs = float64(time.Since(start).Nanoseconds())
		if serial.Detected != parallel.Detected || serial.Mul != parallel.Mul {
			b.Fatal("parallel fig10 sweep diverged from serial run")
		}
	}
	b.ReportMetric(serialNs, "serial-ns")
	b.ReportMetric(parallelNs, "parallel-ns")
	b.ReportMetric(serialNs/parallelNs, "sweep-speedup-x")
	reportSweepWorkers(b, *sweepWorkers)
}

// BenchmarkCheckpointForkKeysweep measures what checkpoint/fork buys the
// heaviest sweep: the 8-plaintext extraction sweep cold-booting a 64 MB
// platform per trial vs forking every trial from one warm post-install
// checkpoint. Both run single-worker, so the comparison isolates the
// per-trial setup cost from parallel scheduling; the results must be
// byte-identical (the fork correctness guarantee). fork-speedup-x is
// reported, not asserted: its median was 1.16 over 30 runs with
// GOMAXPROCS=1 on a 2-vCPU Intel Xeon (docs/performance.md).
func BenchmarkCheckpointForkKeysweep(b *testing.B) {
	cfg := experiments.DefaultAESConfig()
	const trials = 8
	pts := make([][]byte, trials)
	for i := range pts {
		pts[i] = experiments.TrialPlaintext(i)
	}
	var coldNs, forkNs float64
	for i := 0; i < b.N; i++ {
		start := time.Now()
		cold, err := experiments.RunAESExtractionSweepColdBoot(cfg, pts, 1)
		if err != nil {
			b.Fatal(err)
		}
		coldNs = float64(time.Since(start).Nanoseconds())
		start = time.Now()
		fork, err := experiments.RunAESExtractionSweep(cfg, pts, 1)
		if err != nil {
			b.Fatal(err)
		}
		forkNs = float64(time.Since(start).Nanoseconds())
		if !reflect.DeepEqual(cold, fork) {
			b.Fatal("forked sweep diverged from cold-boot run")
		}
	}
	b.ReportMetric(coldNs, "coldboot-ns")
	b.ReportMetric(forkNs, "fork-ns")
	b.ReportMetric(coldNs/forkNs, "fork-speedup-x")
	b.ReportMetric(float64(trials)/(coldNs/1e9), "coldboot-trials-per-sec")
	b.ReportMetric(float64(trials)/(forkNs/1e9), "fork-trials-per-sec")
	reportSweepWorkers(b, 1) // both legs pinned serial: isolates setup cost
}

// BenchmarkCheckpointForkFig10 is the same cold-boot vs fork comparison
// on the Fig. 10 detection-study sweep (four platforms per trial when
// cold-booting: two sides, each with victim and monitor installs).
func BenchmarkCheckpointForkFig10(b *testing.B) {
	cfg := experiments.DefaultFig10Config()
	cfg.Samples = 1000
	cfg.Workers = 1
	const trials = 4
	var coldNs, forkNs float64
	for i := 0; i < b.N; i++ {
		start := time.Now()
		cold, err := experiments.RunFig10SweepColdBoot(cfg, trials)
		if err != nil {
			b.Fatal(err)
		}
		coldNs = float64(time.Since(start).Nanoseconds())
		start = time.Now()
		fork, err := experiments.RunFig10Sweep(cfg, trials)
		if err != nil {
			b.Fatal(err)
		}
		forkNs = float64(time.Since(start).Nanoseconds())
		if cold.Detected != fork.Detected || cold.Mul != fork.Mul || cold.Div != fork.Div {
			b.Fatal("forked fig10 sweep diverged from cold-boot run")
		}
	}
	b.ReportMetric(coldNs, "coldboot-ns")
	b.ReportMetric(forkNs, "fork-ns")
	b.ReportMetric(coldNs/forkNs, "fork-speedup-x")
	b.ReportMetric(float64(trials)/(forkNs/1e9), "fork-trials-per-sec")
	reportSweepWorkers(b, 1) // both legs pinned serial: isolates setup cost
}

// BenchmarkFig12ReplayHandles runs the three generalized replay handles.
func BenchmarkFig12ReplayHandles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := replay.RunPageFaultHandle(5); err != nil {
			b.Fatal(err)
		}
		if _, err := replay.RunTSXAbortHandle(5, false); err != nil {
			b.Fatal(err)
		}
		if _, err := replay.RunMispredictHandle(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSec72RDRANDBias runs the integrity attack with and without the
// fence.
func BenchmarkSec72RDRANDBias(b *testing.B) {
	var windows int
	for i := 0; i < b.N; i++ {
		res, err := replay.RunRDRANDBias(1, 100, false)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Achieved {
			b.Fatal("bias failed")
		}
		windows = res.Windows
		fenced, err := replay.RunRDRANDBias(1, 30, true)
		if err != nil {
			b.Fatal(err)
		}
		if fenced.Achieved {
			b.Fatal("fenced bias succeeded")
		}
	}
	b.ReportMetric(float64(windows), "windows-discarded")
}

// BenchmarkSec8Defenses evaluates T-SGX, Déjà Vu and PF-obliviousness.
func BenchmarkSec8Defenses(b *testing.B) {
	var leaks int
	for i := 0; i < b.N; i++ {
		ts, err := defense.RunTSGX(10)
		if err != nil {
			b.Fatal(err)
		}
		leaks = ts.LeakObservations
		if _, err := defense.RunDejaVu(10_000, 2, 1_200); err != nil {
			b.Fatal(err)
		}
		if _, err := defense.RunPFOblivious(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(leaks), "tsgx-leaks")
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §6)
// ---------------------------------------------------------------------

// faultDelay measures victim-start-to-first-fault time under a given
// core config and walk tuning: the replay-window length knob.
func faultDelay(b *testing.B, cfg cpu.Config, walkLevels int) uint64 {
	b.Helper()
	rig, err := platform.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	l := victim.ControlFlowSecret(false)
	if err := rig.InstallVictim(l); err != nil {
		b.Fatal(err)
	}
	rec := &microscope.Recipe{
		Name: "ablation", Victim: rig.Victim, Handle: l.Sym("handle"),
		WalkLevels: walkLevels, MaxReplays: 1,
	}
	var faultCycle uint64
	rec.OnReplay = func(ev microscope.Event) microscope.Decision {
		faultCycle = ev.Cycle
		return microscope.Release
	}
	if err := rig.Module.Install(rec); err != nil {
		b.Fatal(err)
	}
	start := rig.Core.Cycle()
	l.Start(rig.Kernel, 0)
	if err := rig.Run(10_000_000); err != nil {
		b.Fatal(err)
	}
	return faultCycle - start
}

// BenchmarkAblationWalkLength: the page-walk duration (and with it the
// replay window) grows with the number of uncached page-table levels.
func BenchmarkAblationWalkLength(b *testing.B) {
	var delays [5]uint64
	for i := 0; i < b.N; i++ {
		for levels := 1; levels <= 4; levels++ {
			delays[levels] = faultDelay(b, cpu.DefaultConfig(), levels)
		}
	}
	for levels := 1; levels <= 4; levels++ {
		b.ReportMetric(float64(delays[levels]), map[int]string{
			1: "walk1-cycles", 2: "walk2-cycles", 3: "walk3-cycles", 4: "walk4-cycles",
		}[levels])
	}
	if delays[4] <= delays[1] {
		b.Fatal("walk length has no effect")
	}
}

// BenchmarkAblationPWC: disabling the page-walk cache lengthens every
// walk (upper levels no longer short-circuit).
func BenchmarkAblationPWC(b *testing.B) {
	var with, without uint64
	for i := 0; i < b.N; i++ {
		cfg := cpu.DefaultConfig()
		with = coldWalkCycles(b, cfg)
		cfg.PWCSize = 0
		without = coldWalkCycles(b, cfg)
	}
	b.ReportMetric(float64(with), "pwc-on-cycles")
	b.ReportMetric(float64(without), "pwc-off-cycles")
}

// coldWalkCycles measures a TLB-missing access to a sibling page after
// the caches were flushed but the PWC (when enabled) still holds the
// upper page-table levels.
func coldWalkCycles(b *testing.B, cfg cpu.Config) uint64 {
	b.Helper()
	phys := mem.NewPhysMem(32 << 20)
	core := cpu.NewCore(cfg, phys)
	as, err := mem.NewAddressSpace(phys, 1)
	if err != nil {
		b.Fatal(err)
	}
	core.Context(0).SetAddressSpace(as)
	va := mem.Addr(0x40_0000)
	if _, err := as.MapNew(va, mem.FlagUser|mem.FlagWritable); err != nil {
		b.Fatal(err)
	}
	if _, err := as.MapNew(va+mem.PageSize, mem.FlagUser|mem.FlagWritable); err != nil {
		b.Fatal(err)
	}

	// Phase 1: warm the PWC with a walk of the first page.
	warm := isa.NewBuilder().
		MovImm(isa.R1, int64(va)).
		Load(isa.R2, isa.R1, 0).
		Halt().MustBuild()
	core.Context(0).SetProgram(warm, 0)
	core.Run(1_000_000)

	// Flush the cache hierarchy (the PWC survives when configured).
	core.Hierarchy().FlushAll()

	// Phase 2: time a walk of the sibling page.
	probe := isa.NewBuilder().
		MovImm(isa.R1, int64(va+mem.PageSize)).
		Rdtsc(isa.R7).
		Load(isa.R2, isa.R1, 0).
		Mov(isa.R3, isa.R2). // dependent: orders the closing rdtsc
		Rdtsc(isa.R8).
		Halt().MustBuild()
	core.Context(0).SetProgram(probe, 0)
	core.Run(1_000_000)
	return core.Context(0).Reg(isa.R8) - core.Context(0).Reg(isa.R7)
}

// BenchmarkAblationDividerLatency: the port channel's separability scales
// with divider occupancy.
func BenchmarkAblationDividerLatency(b *testing.B) {
	var sep12, sep48 float64
	for i := 0; i < b.N; i++ {
		cfgShort := experiments.DefaultFig10Config()
		cfgShort.Samples = 1500
		sep12 = fig10SeparationWithDivLat(b, cfgShort, 12)
		sep48 = fig10SeparationWithDivLat(b, cfgShort, 48)
	}
	b.ReportMetric(sep12, "separation-div12")
	b.ReportMetric(sep48, "separation-div48")
}

func fig10SeparationWithDivLat(b *testing.B, cfg experiments.Fig10Config, divLat int) float64 {
	b.Helper()
	res, err := experiments.RunFig10WithCore(cfg, func(c *cpu.Config) {
		c.DivLat = divLat
		c.FDivLat = divLat
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.SeparationX
}

// BenchmarkAblationROBSize: the speculative window (instructions per
// replay) is bounded by the ROB.
func BenchmarkAblationROBSize(b *testing.B) {
	var small, large uint64
	for i := 0; i < b.N; i++ {
		cfg := cpu.DefaultConfig()
		cfg.ROBSize = 16
		small = windowFootprint(b, cfg)
		cfg.ROBSize = 192
		large = windowFootprint(b, cfg)
	}
	b.ReportMetric(float64(small), "lines-rob16")
	b.ReportMetric(float64(large), "lines-rob192")
	if small >= large {
		b.Fatal("ROB size has no effect on window footprint")
	}
}

// windowFootprint counts probe lines touched in one replay window of a
// victim that streams through many lines after the handle.
func windowFootprint(b *testing.B, cfg cpu.Config) uint64 {
	b.Helper()
	rig, err := platform.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	l := victim.LoopSecret([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	if err := rig.InstallVictim(l); err != nil {
		b.Fatal(err)
	}
	var count uint64
	rec := &microscope.Recipe{
		Name: "rob", Victim: rig.Victim, Handle: l.Sym("handle"), MaxReplays: 1,
	}
	rec.OnReplay = func(ev microscope.Event) microscope.Decision {
		addrs := make([]mem.Addr, 64)
		for i := range addrs {
			addrs[i] = l.Sym("probe") + mem.Addr(i)*64
		}
		prs, err := rig.Module.ProbeAddrs(rig.Victim, addrs)
		if err != nil {
			b.Fatal(err)
		}
		for _, pr := range prs {
			if pr.Level != 4 {
				count++
			}
		}
		return microscope.Release
	}
	if err := rig.Module.Install(rec); err != nil {
		b.Fatal(err)
	}
	l.Start(rig.Kernel, 0)
	if err := rig.Run(10_000_000); err != nil {
		b.Fatal(err)
	}
	return count
}

// BenchmarkAblationHandlerLatency: longer handlers dilute the monitor's
// over-threshold fraction (most samples land during handling, §6.1).
func BenchmarkAblationHandlerLatency(b *testing.B) {
	var short, long float64
	var simCycles uint64
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig10Config()
		cfg.Samples = 1500
		cfg.HandlerLatency = 2_000
		r1, err := experiments.RunFig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		short = float64(r1.DivOver) / float64(cfg.Samples)
		cfg.HandlerLatency = 20_000
		r2, err := experiments.RunFig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		long = float64(r2.DivOver) / float64(cfg.Samples)
		simCycles += r1.Mul.Cycles + r1.Div.Cycles + r2.Mul.Cycles + r2.Div.Cycles
	}
	b.ReportMetric(short*1000, "over-rate-h2k-permille")
	b.ReportMetric(long*1000, "over-rate-h20k-permille")
	reportSimThroughput(b, simCycles)
	if long >= short {
		b.Fatal("handler latency has no diluting effect")
	}
}

// BenchmarkModExpExtraction runs the RSA-style square-and-multiply
// exponent recovery (Loop Secret applied to crypto, §4.2.2/§4.2.3).
func BenchmarkModExpExtraction(b *testing.B) {
	var faults int
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunModExp(0x4321, 0xC0DE, 0xE777D, 16)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Match() || !res.ResultOK {
			b.Fatalf("extraction failed: %+v", res)
		}
		faults = res.Faults
	}
	b.ReportMetric(float64(faults), "faults")
}

// BenchmarkBaselines runs the §2.4 prior attacks (Table 1 rows).
func BenchmarkBaselines(b *testing.B) {
	var traces int
	for i := 0; i < b.N; i++ {
		if _, err := baseline.RunControlledChannel(true); err != nil {
			b.Fatal(err)
		}
		if _, err := baseline.RunSPM(true); err != nil {
			b.Fatal(err)
		}
		pp, err := baseline.RunPrimeProbe(
			[]byte("0123456789abcdef"), []byte("attack at dawn!!"), 0.2, 120, 7, 0)
		if err != nil {
			b.Fatal(err)
		}
		traces = pp.TracesTo99
		if _, err := baseline.RunSGXStep(
			[]byte("0123456789abcdef"), []byte("attack at dawn!!"), 25, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(traces), "primeprobe-traces")
}

// BenchmarkHardwareDefenses runs the fence-after-flush and invisible-
// speculation evaluations (§8).
func BenchmarkHardwareDefenses(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		faf, err := defense.RunFenceAfterFlush()
		if err != nil {
			b.Fatal(err)
		}
		overhead = faf.OverheadPct()
		inv, err := defense.RunInvisibleSpeculation()
		if err != nil {
			b.Fatal(err)
		}
		if inv.CacheLeakWith || !inv.PortLeakWith {
			b.Fatal("invisible-speculation outcome wrong")
		}
	}
	b.ReportMetric(overhead, "faf-overhead-pct")
}
