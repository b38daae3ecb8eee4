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

// Extra pages touched by the PF-oblivious transformation's redundant
// accesses.
const (
	oblivPageA mem.Addr = 0x0043_0000
	oblivPageB mem.Addr = 0x0044_0000
)

// PFObliviousResult reports the Shinde-et-al. experiment: the transformed
// program exhibits identical page-level access patterns for every secret
// (defeating controlled-channel attacks) — yet its added redundant
// accesses hand MicroScope *more* replay handles, and the cache-line-
// granularity secret still leaks (§8's closing observation).
type PFObliviousResult struct {
	// PageTraceEqual reports that both secret values produced identical
	// page-fault (VPN) sequences — the property the defense provides.
	PageTraceEqual bool
	// HandleCandidates is the number of distinct pages usable as replay
	// handles in the transformed victim.
	HandleCandidates int
	// SecretRecovered reports that MicroScope still extracted the secret
	// through the cache-line channel using one of the redundant accesses
	// as its handle.
	SecretRecovered bool
}

// oblivVictim is a PF-oblivious victim: whatever the secret bit, it
// touches the same pages in the same order (the redundant accesses added
// by the transformation), then performs a secret-indexed access *within*
// one page — invisible at page granularity, plainly visible to a
// cache-line probe.
func oblivVictim(secret bool) *victim.Layout {
	s := int64(0)
	if secret {
		s = 1
	}
	b := isa.NewBuilder().
		MovImm(isa.R1, int64(handleVA)).
		MovImm(isa.R2, int64(probeVA)).
		MovImm(isa.R8, int64(oblivPageA)).
		MovImm(isa.R9, int64(oblivPageB)).
		MovImm(isa.R3, s).
		// Redundant accesses inserted by the transformation: same pages
		// touched regardless of the secret.
		Load(isa.R10, isa.R8, 0).
		Load(isa.R11, isa.R9, 0).
		Load(isa.R4, isa.R1, 0). // original access (a natural handle)
		// Secret-dependent line within the probe page (not a new page).
		ShlImm(isa.R5, isa.R3, 6).
		Add(isa.R5, isa.R5, isa.R2).
		Load(isa.R6, isa.R5, 0).
		Halt()
	return &victim.Layout{
		Name: "pfobliv",
		Prog: b.MustBuild(),
		Symbols: map[string]mem.Addr{
			"handle": handleVA, "probe": probeVA,
			"redundantA": oblivPageA, "redundantB": oblivPageB,
		},
		Regions: []victim.Region{
			{Name: "handle", VA: handleVA, Size: mem.PageSize, Flags: rw},
			{Name: "probe", VA: probeVA, Size: mem.PageSize, Flags: rw},
			{Name: "redundantA", VA: oblivPageA, Size: mem.PageSize, Flags: rw},
			{Name: "redundantB", VA: oblivPageB, Size: mem.PageSize, Flags: rw},
		},
	}
}

// RunPFOblivious runs the PF-obliviousness analysis for both secret
// values.
func RunPFOblivious() (*PFObliviousResult, error) {
	// Step 1: page-level traces are secret-independent (defense works at
	// its own granularity). Run both victims under demand paging and
	// compare the VPN fault sequences.
	var traces [2][]uint64
	for i, secret := range []bool{false, true} {
		rig, err := platform.New(cpu.DefaultConfig())
		if err != nil {
			return nil, err
		}
		l := oblivVictim(secret)
		// Install regions WITHOUT eager mapping: every first touch
		// faults, exposing the page-level trace to the OS.
		for _, reg := range l.Regions {
			rig.Kernel.AddVMA(rig.Victim, reg.VA, reg.VA+reg.Size, reg.Flags, reg.Name)
		}
		l.Start(rig.Kernel, 0)
		if err := rig.Run(50_000_000); err != nil {
			return nil, fmt.Errorf("oblivious victim %d: %w", i, err)
		}
		for _, f := range rig.Kernel.FaultLog() {
			traces[i] = append(traces[i], f.VPN)
		}
	}
	res := &PFObliviousResult{PageTraceEqual: equalU64(traces[0], traces[1])}

	// Step 2: mount MicroScope using a redundant access as the handle and
	// recover the secret through the cache-line channel.
	secret := true
	rig, err := platform.New(cpu.DefaultConfig())
	if err != nil {
		return nil, err
	}
	core, k, m, proc := rig.Core, rig.Kernel, rig.Module, rig.Victim
	l := oblivVictim(secret)
	if err := rig.InstallVictim(l); err != nil {
		return nil, err
	}
	// Every page the victim touches is a handle candidate; the redundant
	// pages are new ones the transformation donated.
	res.HandleCandidates = len(l.Regions)

	line0, err := proc.AddressSpace().Translate(probeVA)
	if err != nil {
		return nil, err
	}
	line1, err := proc.AddressSpace().Translate(probeVA + 64)
	if err != nil {
		return nil, err
	}
	core.Hierarchy().FlushAddr(line0)
	core.Hierarchy().FlushAddr(line1)

	recovered := -1
	rec := &microscope.Recipe{
		Name:   "obliv",
		Victim: proc,
		Handle: l.Sym("redundantA"), // a handle the DEFENSE added
	}
	rec.OnReplay = func(ev microscope.Event) microscope.Decision {
		hot0 := core.Hierarchy().LevelOf(line0) != cache.LevelMem
		hot1 := core.Hierarchy().LevelOf(line1) != cache.LevelMem
		switch {
		case hot1 && !hot0:
			recovered = 1
		case hot0 && !hot1:
			recovered = 0
		}
		if recovered >= 0 || ev.Replays > 20 {
			return microscope.Release
		}
		return microscope.Replay
	}
	if err := m.Install(rec); err != nil {
		return nil, err
	}
	l.Start(k, 0)
	if err := rig.Run(50_000_000); err != nil {
		return nil, fmt.Errorf("attacked oblivious victim: %w", err)
	}
	res.SecretRecovered = recovered == 1 // secret was true
	return res, nil
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
