package defense

import (
	"fmt"

	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cache"
	"microscope/sim/cpu"
	"microscope/sim/isa"
	"microscope/sim/mem"
)

// FenceAfterFlushResult evaluates the paper's first §8 countermeasure:
// a hardware fence inserted after every pipeline flush.
type FenceAfterFlushResult struct {
	// LeakyWindowsWithout/With count replay windows whose transmit left a
	// cache footprint. The fence cannot stop the FIRST window (ordinary
	// speculation, no flush yet); it stops the replay amplification —
	// windows 2..N stay clean.
	LeakyWindowsWithout int
	LeakyWindowsWith    int
	// BenignCycles report a branch- and fault-heavy benign workload's
	// runtime without and with the defense (the overhead the paper warns
	// about).
	BenignCyclesWithout uint64
	BenignCyclesWith    uint64
}

// OverheadPct returns the benign-workload slowdown in percent.
func (r *FenceAfterFlushResult) OverheadPct() float64 {
	if r.BenignCyclesWithout == 0 {
		return 0
	}
	return 100 * float64(int64(r.BenignCyclesWith)-int64(r.BenignCyclesWithout)) /
		float64(r.BenignCyclesWithout)
}

// RunFenceAfterFlush measures the fence-after-flush defense: the replay
// window shrinks to just the faulting handle, so the transmit never
// executes speculatively — at the cost of serializing every benign
// mispredict and fault.
func RunFenceAfterFlush() (*FenceAfterFlushResult, error) {
	res := &FenceAfterFlushResult{}
	for _, fenced := range []bool{false, true} {
		cfg := cpu.DefaultConfig()
		cfg.FenceAfterFlush = fenced
		leaky, err := replayLeakObserved(cfg)
		if err != nil {
			return nil, err
		}
		cycles, err := benignWorkloadCycles(cfg)
		if err != nil {
			return nil, err
		}
		if fenced {
			res.LeakyWindowsWith = leaky
			res.BenignCyclesWith = cycles
		} else {
			res.LeakyWindowsWithout = leaky
			res.BenignCyclesWithout = cycles
		}
	}
	return res, nil
}

// replayLeakObserved mounts the basic replay attack and counts how many
// of 5 replay windows exposed the transmit's footprint (the probe line is
// re-flushed after every window).
func replayLeakObserved(cfg cpu.Config) (int, error) {
	rig, err := platform.New(cfg)
	if err != nil {
		return 0, err
	}
	core, k, m, proc := rig.Core, rig.Kernel, rig.Module, rig.Victim
	l := leakVictim()
	if err := rig.InstallVictim(l); err != nil {
		return 0, err
	}
	probePA, err := proc.AddressSpace().Translate(probeVA)
	if err != nil {
		return 0, err
	}
	core.Hierarchy().FlushAddr(probePA)

	leaky := 0
	rec := &microscope.Recipe{
		Name: "faf", Victim: proc, Handle: handleVA, MaxReplays: 5,
	}
	rec.OnReplay = func(ev microscope.Event) microscope.Decision {
		if core.Hierarchy().LevelOf(probePA) != cache.LevelMem {
			leaky++
			core.Hierarchy().FlushAddr(probePA)
		}
		if ev.Replays >= 5 {
			return microscope.Release
		}
		return microscope.Replay
	}
	if err := m.Install(rec); err != nil {
		return 0, err
	}
	l.Start(k, 0)
	if err := rig.Run(50_000_000); err != nil {
		return 0, err
	}
	return leaky, nil
}

// leakVictim is a handle-then-transmit victim.
func leakVictim() *victim.Layout {
	b := isa.NewBuilder().
		MovImm(isa.R1, int64(handleVA)).
		MovImm(isa.R2, int64(probeVA)).
		Load(isa.R3, isa.R1, 0). // handle
		Load(isa.R4, isa.R2, 0). // transmit
		Halt()
	return &victim.Layout{
		Name: "faf-victim",
		Prog: b.MustBuild(),
		Regions: []victim.Region{
			{Name: "handle", VA: handleVA, Size: mem.PageSize, Flags: rw},
			{Name: "probe", VA: probeVA, Size: mem.PageSize, Flags: rw},
		},
	}
}

// benignWorkloadCycles runs a data-dependent branchy loop with demand
// paging — the workload class fence-after-flush taxes.
func benignWorkloadCycles(cfg cpu.Config) (uint64, error) {
	rig, err := platform.New(cfg)
	if err != nil {
		return 0, err
	}
	core, k, proc := rig.Core, rig.Kernel, rig.Victim
	data := mem.Addr(0x0060_0000)
	k.AddVMA(proc, data, data+8*mem.PageSize, rw, "data") // demand paged

	// A loop whose branch direction alternates (mispredicts regularly)
	// and that touches a new page every 512 iterations (demand faults).
	prog := isa.NewBuilder().
		MovImm(isa.R1, 2000).
		MovImm(isa.R2, int64(data)).
		MovImm(isa.R3, 0).
		Label("loop").
		AndImm(isa.R4, isa.R1, 3).
		Beq(isa.R4, isa.R0, "skip"). // taken every 4th iteration
		AddImm(isa.R3, isa.R3, 1).
		Label("skip").
		ShlImm(isa.R5, isa.R1, 4).
		AndImm(isa.R5, isa.R5, 0x7ff8).
		Add(isa.R5, isa.R5, isa.R2).
		Store(isa.R3, isa.R5, 0).
		AddImm(isa.R1, isa.R1, -1).
		Bne(isa.R1, isa.R0, "loop").
		Halt().MustBuild()
	core.Context(0).SetProgram(prog, 0)
	start := core.Cycle()
	if err := rig.Run(50_000_000); err != nil {
		return 0, fmt.Errorf("benign workload: %w", err)
	}
	return core.Cycle() - start, nil
}

// InvisibleSpecResult evaluates InvisiSpec/SafeSpec-style invisible
// speculation against both MicroScope channels.
type InvisibleSpecResult struct {
	// CacheLeakWithout/With: did the transient transmit leave a cache
	// footprint?
	CacheLeakWithout bool
	CacheLeakWith    bool
	// PortLeakWith: does the port-contention channel still work under the
	// defense? (The paper's criticism: yes.)
	PortLeakWith bool
}

// RunInvisibleSpeculation runs the cache-channel attack and the
// port-contention attack with invisible speculation on.
func RunInvisibleSpeculation() (*InvisibleSpecResult, error) {
	res := &InvisibleSpecResult{}
	for _, invisible := range []bool{false, true} {
		cfg := cpu.DefaultConfig()
		cfg.InvisibleSpeculation = invisible
		leaky, err := replayLeakObserved(cfg)
		if err != nil {
			return nil, err
		}
		if invisible {
			res.CacheLeakWith = leaky > 0
		} else {
			res.CacheLeakWithout = leaky > 0
		}
	}

	// Port channel under the defense: the §4.3 denoising loop still
	// distinguishes the secret.
	curve, err := runDenoiseWithConfig(true, 15, func(c *cpu.Config) {
		c.InvisibleSpeculation = true
	})
	if err != nil {
		return nil, err
	}
	res.PortLeakWith = curve
	return res, nil
}

// runDenoiseWithConfig mounts the control-flow-secret denoising attack
// under a tweaked core config and reports whether the verdict is correct.
func runDenoiseWithConfig(secret bool, replays int, tweak func(*cpu.Config)) (bool, error) {
	cfg := cpu.DefaultConfig()
	tweak(&cfg)
	rig, err := platform.New(cfg)
	if err != nil {
		return false, err
	}
	vic := victim.ControlFlowSecret(secret)
	if err := rig.InstallVictim(vic); err != nil {
		return false, err
	}
	var lastBusy uint64
	hits := 0
	rec := &microscope.Recipe{
		Name: "inv-port", Victim: rig.Victim, Handle: vic.Sym("handle"),
		MaxReplays: replays,
	}
	rec.OnReplay = func(ev microscope.Event) microscope.Decision {
		busy := rig.Core.Ports().DivBusyCycles
		if busy > lastBusy {
			hits++
		}
		lastBusy = busy
		if ev.Replays >= replays {
			return microscope.Release
		}
		return microscope.Replay
	}
	if err := rig.Module.Install(rec); err != nil {
		return false, err
	}
	vic.Start(rig.Kernel, 0)
	if err := rig.Run(100_000_000); err != nil {
		return false, err
	}
	return (hits > replays/2) == secret, nil
}
