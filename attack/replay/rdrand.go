package replay

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

// BiasResult reports one RDRAND integrity-bias attack (§7.2).
type BiasResult struct {
	Fenced bool
	// TargetBit is the low bit the attacker wants RDRAND to retire with.
	TargetBit uint64
	// Achieved reports that the retired value's low bit equals TargetBit
	// *because the attacker selected it* (Windows > 0 and the observation
	// matched), not by chance.
	Achieved bool
	// Windows is how many speculative windows the attacker discarded
	// before accepting one.
	Windows int
	// Observed reports whether the attacker could read the RDRAND value
	// over the side channel at all (false when the fence blocks it).
	Observed bool
	// FinalLowBit is the low bit of the value the victim actually
	// retired and stored.
	FinalLowBit uint64
}

const (
	biasHandleVA mem.Addr = 0x0040_0000
	biasArrayVA  mem.Addr = 0x0041_0000
	biasOutVA    mem.Addr = 0x0042_0000
)

// RunRDRANDBias mounts the §7.2 integrity attack: the victim draws a
// random value in the shadow of a replay handle and transmits its low bit
// over a cache line; the attacker replays until the observed bit matches
// the target, then sets the present bit *during* the page walk so that
// very draw retires — biasing a "true" random number generator.
//
// With fenced=true the core models Intel's actual RDRAND fence: nothing
// younger than RDRAND dispatches until it retires, the transmit never
// executes speculatively, and the attacker is blind — the attack fails,
// the lesson of §7.2 ("there should be such a fence, for security
// reasons").
func RunRDRANDBias(targetBit uint64, maxWindows int, fenced bool) (*BiasResult, error) {
	cfg := cpu.DefaultConfig()
	cfg.FencedRdrand = fenced
	r, err := platform.New(cfg)
	if err != nil {
		return nil, err
	}

	l := &victim.Layout{
		Name: "rdrand-bias",
		Prog: isa.NewBuilder().
			MovImm(isa.R1, int64(biasHandleVA)).
			MovImm(isa.R2, int64(biasArrayVA)).
			MovImm(isa.R7, int64(biasOutVA)).
			Load(isa.R3, isa.R1, 0). // replay handle
			Rdrand(isa.R4).
			AndImm(isa.R5, isa.R4, 1).
			ShlImm(isa.R5, isa.R5, 6). // bit -> cache line
			Add(isa.R5, isa.R5, isa.R2).
			Load(isa.R6, isa.R5, 0).  // transmit
			Store(isa.R4, isa.R7, 0). // victim consumes the random value
			Halt().MustBuild(),
		Regions: []victim.Region{
			{Name: "handle", VA: biasHandleVA, Size: mem.PageSize, Flags: mem.FlagUser | mem.FlagWritable},
			{Name: "array", VA: biasArrayVA, Size: mem.PageSize, Flags: mem.FlagUser | mem.FlagWritable},
			{Name: "out", VA: biasOutVA, Size: mem.PageSize, Flags: mem.FlagUser | mem.FlagWritable},
		},
	}
	if err := r.InstallVictim(l); err != nil {
		return nil, err
	}

	line0, err := r.Victim.AddressSpace().Translate(biasArrayVA)
	if err != nil {
		return nil, err
	}
	line1, err := r.Victim.AddressSpace().Translate(biasArrayVA + 64)
	if err != nil {
		return nil, err
	}
	flushLines := func() {
		r.Core.Hierarchy().FlushAddr(line0)
		r.Core.Hierarchy().FlushAddr(line1)
	}
	observeBit := func() (uint64, bool) {
		hot0 := r.Core.Hierarchy().LevelOf(line0) != cache.LevelMem
		hot1 := r.Core.Hierarchy().LevelOf(line1) != cache.LevelMem
		switch {
		case hot0 && !hot1:
			return 0, true
		case hot1 && !hot0:
			return 1, true
		}
		return 0, false
	}

	res := &BiasResult{Fenced: fenced, TargetBit: targetBit}
	gaveUp := false
	rec := &microscope.Recipe{
		Name:   "rdrand-bias",
		Victim: r.Victim,
		Handle: biasHandleVA,
	}
	rec.OnReplay = func(ev microscope.Event) microscope.Decision {
		// A fault was delivered: the previous window's draw was
		// discarded (either we chose to, or we were blind).
		res.Windows++
		if res.Windows >= maxWindows {
			gaveUp = true
			return microscope.Release
		}
		flushLines()
		return microscope.Replay
	}
	if err := r.Module.Install(rec); err != nil {
		return nil, err
	}
	flushLines()
	l.Start(r.Kernel, 0)

	// Drive the core cycle by cycle, watching the probe lines. When the
	// observed bit matches the target, set the present bit immediately —
	// before the in-flight walk concludes — so this very draw retires.
	ctx := r.Core.Context(0)
	accepted := false
	for steps := 0; steps < 100_000_000 && !ctx.Halted(); steps++ {
		r.Core.Step()
		if accepted || gaveUp {
			continue
		}
		if bit, ok := observeBit(); ok {
			res.Observed = true
			if bit == targetBit {
				if _, err := r.Victim.AddressSpace().SetPresent(biasHandleVA, true); err != nil {
					return nil, err
				}
				accepted = true
			}
		}
	}
	if !ctx.Halted() {
		return nil, fmt.Errorf("replay: rdrand victim did not finish")
	}
	out, err := r.Victim.AddressSpace().Read64Virt(biasOutVA)
	if err != nil {
		return nil, err
	}
	res.FinalLowBit = out & 1
	res.Achieved = accepted && res.FinalLowBit == targetBit
	return res, nil
}
