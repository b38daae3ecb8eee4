package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"microscope/attack/microscope"
	"microscope/attack/monitor"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/isa"
	"microscope/sim/snapshot"
	"microscope/sim/trace"
)

// The snapshot differential suite, the restore-side mirror of
// ffequiv_test.go: every builtin victim is driven through a full replay
// attack three ways —
//
//	A: one uninterrupted Run;
//	B: the same run chunked, with a whole-machine checkpoint taken at
//	   the midpoint (snapshotting must not perturb the run);
//	C: a fresh rig booted from B's midpoint checkpoint and run to
//	   completion, its trace hash seeded from B's midpoint hash state.
//
// A and B must agree on everything observable except the fast-forward
// skip accounting (chunk boundaries can force a step where an
// uninterrupted run would skip — the same allowance ffequiv makes), and
// C must equal B *exactly*: Restore(snap); Run(n) is bit-identical to
// the original run continuing past the capture point.

// snapDigest summarizes everything observable about one run.
type snapDigest struct {
	traceHash uint64
	events    uint64
	cycles    uint64
	skipped   uint64
	replays   int
	faults    int
	regs      [2][isa.NumRegs]uint64
	stats     [2]cpu.ContextStats
}

func digestRig(rig *platform.Rig, h *trace.Hasher, rec *microscope.Recipe) snapDigest {
	d := snapDigest{
		traceHash: h.Sum64(),
		events:    h.Events(),
		cycles:    rig.Core.Cycle(),
		skipped:   rig.Core.SkippedCycles(),
		replays:   rec.Replays(),
		faults:    rec.TotalFaults(),
	}
	for i := 0; i < rig.Core.Contexts() && i < 2; i++ {
		ctx := rig.Core.Context(i)
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			d.regs[i][r] = ctx.Reg(r)
		}
		d.stats[i] = ctx.Stats()
	}
	return d
}

// zeroSkips returns the digest with the fast-forward skip accounting
// cleared (the only state chunked running may legitimately change).
func (d snapDigest) zeroSkips() snapDigest {
	d.skipped = 0
	for i := range d.stats {
		d.stats[i].SkippedCycles = 0
	}
	return d
}

const snapBudget = 5_000_000

// mountSnapScenario assembles the scenario's rig with recipe installed
// and programs started, tracer attached, ready to run.
func mountSnapScenario(t *testing.T, sc ffScenario) (*platform.Rig, *trace.Hasher, *microscope.Recipe) {
	t.Helper()
	cfg := cpu.DefaultConfig()
	cfg.JitterPeriod = 901
	cfg.JitterExtra = 150

	rig, err := platform.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vic := sc.layout(t)
	if err := rig.InstallVictim(vic); err != nil {
		t.Fatal(err)
	}
	var mon *victim.Layout
	if sc.monitor {
		mon = monitor.PortContention(64, 2)
		if err := rig.AddMonitor(mon); err != nil {
			t.Fatal(err)
		}
	}
	rec := &microscope.Recipe{
		Name:           "snap-" + sc.name,
		Victim:         rig.Victim,
		Handle:         vic.Sym(sc.handle),
		HandlerLatency: 20_000,
		MaxReplays:     8,
	}
	if sc.monitor {
		rec.OnReplay = monitorRelease(rig)
	}
	if err := rig.Module.Install(rec); err != nil {
		t.Fatal(err)
	}
	h := trace.NewHasher()
	rig.Core.SetTracer(h)
	vic.Start(rig.Kernel, 0)
	if mon != nil {
		mon.Start(rig.Kernel, 1)
	}
	return rig, h, rec
}

// monitorRelease is the Fig. 10-shaped callback: replay until the
// monitor context halts. It closes over the rig, so a restored recipe
// needs a fresh binding against the restored rig (callbacks are host
// code and never serialized).
func monitorRelease(rig *platform.Rig) func(microscope.Event) microscope.Decision {
	return func(microscope.Event) microscope.Decision {
		if rig.Core.Context(1).Halted() {
			return microscope.Release
		}
		return microscope.Replay
	}
}

// runSnapScenario runs the A/B/C triple for one scenario at the given
// midpoint and returns their digests. k = 0 places the checkpoint
// mid-run automatically (half of A's cycle count).
func runSnapScenario(t *testing.T, sc ffScenario, k uint64) (a, b, c snapDigest) {
	t.Helper()

	// A: uninterrupted.
	rigA, hA, recA := mountSnapScenario(t, sc)
	if err := rigA.Run(snapBudget); err != nil {
		t.Fatalf("run A: %v", err)
	}
	a = digestRig(rigA, hA, recA)

	if k == 0 {
		k = a.cycles / 2
	}
	if k == 0 {
		t.Fatalf("scenario finished in %d cycles; nothing to checkpoint", a.cycles)
	}

	// B: chunked, checkpoint at cycle k.
	rigB, hB, recB := mountSnapScenario(t, sc)
	rigB.Core.Run(k)
	cp, err := rigB.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	midSum, midEvents := hB.Sum64(), hB.Events()
	if err := rigB.Run(snapBudget); err != nil {
		t.Fatalf("run B: %v", err)
	}
	b = digestRig(rigB, hB, recB)

	// C: fork from the midpoint checkpoint and run to completion,
	// continuing B's hash chain.
	rigC, err := cp.Boot()
	if err != nil {
		t.Fatalf("boot from checkpoint: %v", err)
	}
	recC := rigC.Module.Recipe("snap-" + sc.name)
	if recC == nil {
		t.Fatalf("restored module lost recipe %q", "snap-"+sc.name)
	}
	if sc.monitor {
		recC.OnReplay = monitorRelease(rigC)
	}
	hC := trace.ResumeHasher(midSum, midEvents)
	rigC.Core.SetTracer(hC)
	if err := rigC.Run(snapBudget); err != nil {
		t.Fatalf("run C: %v", err)
	}
	c = digestRig(rigC, hC, recC)
	return a, b, c
}

func TestSnapshotRestoreBitIdentity(t *testing.T) {
	for _, sc := range ffScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			a, b, c := runSnapScenario(t, sc, 0)

			// Chunking + snapshotting must not perturb the run (skip
			// accounting aside).
			if a.zeroSkips() != b.zeroSkips() {
				t.Errorf("checkpointed run diverges from uninterrupted run:\nA: %+v\nB: %+v",
					a.zeroSkips(), b.zeroSkips())
			}
			// Restore + re-run must be bit-identical to the original run
			// continuing — including the skip accounting.
			if b != c {
				t.Errorf("restored run diverges from original:\nB: %+v\nC: %+v", b, c)
			}
			if b.traceHash != c.traceHash {
				t.Errorf("trace hash chain broken across restore: %#x vs %#x", b.traceHash, c.traceHash)
			}
		})
	}
}

// FuzzSnapshotResume snapshots a run at an arbitrary cycle and checks
// the restored continuation stays bit-identical, over every builtin
// victim scenario.
func FuzzSnapshotResume(f *testing.F) {
	scenarios := ffScenarios()
	f.Add(uint(0), uint64(1_000))
	f.Add(uint(2), uint64(50_000))
	f.Add(uint(4), uint64(123_457))
	f.Add(uint(6), uint64(77))
	f.Fuzz(func(t *testing.T, scIdx uint, k uint64) {
		sc := scenarios[int(scIdx)%len(scenarios)]
		if k == 0 {
			k = 1
		}
		k %= 400_000 // keep the triple-run cheap
		if k == 0 {
			k = 1
		}
		_, b, c := runSnapScenario(t, sc, k)
		if b != c {
			t.Errorf("%s @%d: restored run diverges:\nB: %+v\nC: %+v", sc.name, k, b, c)
		}
	})
}

// The forked sweeps must be byte-identical to their cold-boot reference
// implementations, for any worker count.
func TestForkedAESSweepMatchesColdBoot(t *testing.T) {
	cfg := DefaultAESConfig()
	pts := [][]byte{TrialPlaintext(0), TrialPlaintext(1), TrialPlaintext(2)}
	cold, err := RunAESExtractionSweepColdBoot(cfg, pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		fork, err := RunAESExtractionSweep(cfg, pts, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, fork) {
			t.Fatalf("workers=%d: forked sweep diverges from cold boot", workers)
		}
	}
}

func TestForkedFig10SweepMatchesColdBoot(t *testing.T) {
	cfg := DefaultFig10Config()
	cfg.Samples = 300 // keep the four-trial comparison cheap
	cold, err := RunFig10SweepColdBoot(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		c := cfg
		c.Workers = workers
		fork, err := RunFig10Sweep(c, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Workers is carried inside each trial's result config; align it
		// before comparing (it never affects simulated results).
		for i := range fork.Trials {
			fork.Trials[i].Config.Workers = cold.Trials[i].Config.Workers
		}
		if !reflect.DeepEqual(cold, fork) {
			t.Fatalf("workers=%d: forked fig10 sweep diverges from cold boot", workers)
		}
	}
}

// A checkpoint's Boot must produce an independent copy: diverging the fork must
// not disturb the original, and a checkpoint diffed against itself
// after a round of mutation-and-restore is empty.
func TestRigForkIndependence(t *testing.T) {
	cfg := DefaultAESConfig()
	ar, _, err := newAESRig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ar.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	fork, err := cp.Boot()
	if err != nil {
		t.Fatal(err)
	}
	// Diverge the fork: scribble over the victim's in page and run it.
	if err := fork.Victim.AddressSpace().WriteVirt(victim.AESInVA, bytes.Repeat([]byte{0xAB}, 16)); err != nil {
		t.Fatal(err)
	}
	forkSnap, err := fork.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if diffs := snapshot.Diff(cp.Machine, forkSnap.Machine); len(diffs) == 0 {
		t.Fatal("diverged fork still diffs clean against the original checkpoint")
	}
	// The original must be untouched.
	origSnap, err := ar.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if diffs := snapshot.Diff(cp.Machine, origSnap.Machine); len(diffs) != 0 {
		t.Fatalf("running the fork disturbed the original rig: %v", diffs)
	}
	// And restoring the fork from the original checkpoint erases the
	// divergence completely.
	if err := fork.Restore(cp); err != nil {
		t.Fatal(err)
	}
	restoredSnap, err := fork.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if diffs := snapshot.Diff(cp.Machine, restoredSnap.Machine); len(diffs) != 0 {
		t.Fatalf("restore left residue: %v", diffs)
	}
}
