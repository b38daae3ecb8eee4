package defense

import (
	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cache"
	"microscope/sim/cpu"
	"microscope/sim/isa"
	"microscope/sim/mem"
)

// DejaVuResult reports the Déjà Vu experiment: the enclave times its own
// sensitive region against a threshold; a replay attack inflates the
// elapsed time — unless the attacker keeps the total delay under the
// budget the enclave must tolerate for ordinary faults (the paper's first
// bypass: "replays can be masked by ordinary application page faults").
type DejaVuResult struct {
	Threshold uint64
	Elapsed   uint64
	Replays   int
	Detected  bool
	// Leaked reports the attacker observed the transmit at least once.
	Leaked bool
}

// dejaVuVictim times the sensitive region with RDTSC and stores a
// detection flag when it exceeds the threshold.
func dejaVuVictim(threshold uint64) *victim.Layout {
	b := isa.NewBuilder().
		MovImm(isa.R1, int64(handleVA)).
		MovImm(isa.R2, int64(probeVA)).
		MovImm(isa.R7, int64(outVA)).
		MovImm(isa.R13, int64(threshold)).
		Rdtsc(isa.R10).          // clock start
		Load(isa.R3, isa.R1, 0). // replay handle
		Load(isa.R4, isa.R2, 0). // sensitive transmit
		Rdtsc(isa.R11).          // clock end
		Sub(isa.R12, isa.R11, isa.R10).
		Store(isa.R12, isa.R7, 8). // elapsed
		MovImm(isa.R6, 0).
		Blt(isa.R12, isa.R13, "clean").
		MovImm(isa.R6, 1). // detected
		Label("clean").
		Store(isa.R6, isa.R7, 0).
		Halt()
	return &victim.Layout{
		Name: "dejavu",
		Prog: b.MustBuild(),
		Symbols: map[string]mem.Addr{
			"handle": handleVA, "probe": probeVA, "out": outVA,
		},
		Regions: []victim.Region{
			{Name: "handle", VA: handleVA, Size: mem.PageSize, Flags: rw},
			{Name: "probe", VA: probeVA, Size: mem.PageSize, Flags: rw},
			{Name: "out", VA: outVA, Size: mem.PageSize, Flags: rw},
		},
	}
}

// RunDejaVu attacks a Déjà Vu-protected victim with the given number of
// replays and per-replay handler latency. threshold is the victim's
// time budget for the region (it must tolerate at least one ordinary
// demand fault, or it would flag every benign run).
func RunDejaVu(threshold uint64, replays int, handlerLatency uint64) (*DejaVuResult, error) {
	rig, err := platform.New(cpu.DefaultConfig())
	if err != nil {
		return nil, err
	}
	core, k, m, proc := rig.Core, rig.Kernel, rig.Module, rig.Victim
	l := dejaVuVictim(threshold)
	if err := rig.InstallVictim(l); err != nil {
		return nil, err
	}

	res := &DejaVuResult{Threshold: threshold}
	rec := &microscope.Recipe{
		Name:           "dejavu",
		Victim:         proc,
		Handle:         handleVA,
		HandlerLatency: handlerLatency,
		MaxReplays:     replays,
	}
	probePA, err := proc.AddressSpace().Translate(probeVA)
	if err != nil {
		return nil, err
	}
	core.Hierarchy().FlushAddr(probePA)
	rec.OnReplay = func(ev microscope.Event) microscope.Decision {
		res.Replays = ev.Replays
		if core.Hierarchy().LevelOf(probePA) != cache.LevelMem {
			res.Leaked = true
		}
		if ev.Replays >= replays {
			return microscope.Release
		}
		return microscope.Replay
	}
	if err := m.Install(rec); err != nil {
		return nil, err
	}
	l.Start(k, 0)
	if err := rig.Run(100_000_000); err != nil {
		return nil, err
	}
	flag, err := proc.AddressSpace().Read64Virt(outVA)
	if err != nil {
		return nil, err
	}
	elapsed, err := proc.AddressSpace().Read64Virt(outVA + 8)
	if err != nil {
		return nil, err
	}
	res.Detected = flag == 1
	res.Elapsed = elapsed
	return res, nil
}
