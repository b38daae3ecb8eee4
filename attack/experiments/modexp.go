package experiments

import (
	"fmt"

	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cache"
	"microscope/sim/cpu"
	"microscope/sim/mem"
)

// ModExpResult is the square-and-multiply key-extraction outcome: the
// secret exponent recovered bit by bit from a single logical run.
type ModExpResult struct {
	TrueExp      uint64
	RecoveredExp uint64
	Bits         int
	Faults       int
	// ResultOK: the victim still computed base^exp mod m correctly.
	ResultOK bool
}

// Match reports whether every exponent bit was recovered.
func (r *ModExpResult) Match() bool { return r.TrueExp == r.RecoveredExp }

// RunModExp mounts the RSA-style attack: the per-iteration handle load is
// replayed with a prime+probe of the iteration's multiply-path line, and
// the pivot steps the victim one iteration forward — the Loop Secret
// pattern of §4.2.2 applied to modular exponentiation.
func RunModExp(base, exp, mod uint64, bits int) (*ModExpResult, error) {
	vic, err := victim.NewModExpVictim(base, exp, mod, bits)
	if err != nil {
		return nil, err
	}
	rig, err := platform.New(cpu.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if err := rig.InstallVictim(vic.Layout); err != nil {
		return nil, err
	}

	res := &ModExpResult{TrueExp: exp, Bits: bits}
	probeLines := make([]mem.Addr, bits)
	for i := range probeLines {
		probeLines[i] = vic.ProbeLineVA(i)
	}

	var attackErr error
	iteration := 0
	arrival := 0
	rec := &microscope.Recipe{
		Name:   "modexp",
		Victim: rig.Victim,
		Handle: vic.Sym("handle"),
		Pivot:  vic.Sym("pivot"),
	}
	rec.OnReplay = func(ev microscope.Event) microscope.Decision {
		res.Faults++
		if ev.OnPivot {
			iteration++
			if iteration >= bits {
				return microscope.Release
			}
			return microscope.Pivot
		}
		// The iteration's secret branch starts in an unknown predictor
		// state: a cold not-taken prediction would speculate down the
		// multiply path and pollute the probe line even for a 0 bit
		// (§4.2.3 "Prediction"). The first replays train the predictor to
		// the actual direction — a *known* state — and only then is the
		// window's footprint probed.
		const trainingReplays = 3
		if arrival < trainingReplays {
			arrival++
			if err := rig.Module.PrimeAddrs(rig.Victim, probeLines); err != nil {
				attackErr = err
				return microscope.Release
			}
			return microscope.Replay
		}
		arrival = 0
		prs, err := rig.Module.ProbeAddrs(rig.Victim,
			[]mem.Addr{vic.ProbeLineVA(iteration)})
		if err != nil {
			attackErr = err
			return microscope.Release
		}
		if prs[0].Level != cache.LevelMem {
			res.RecoveredExp |= 1 << uint(bits-1-iteration)
		}
		return microscope.Pivot
	}
	if err := rig.Module.Install(rec); err != nil {
		return nil, err
	}
	vic.Start(rig.Kernel, 0)
	if err := rig.Run(200_000_000); err != nil {
		return nil, err
	}
	if attackErr != nil {
		return nil, attackErr
	}

	out, err := rig.Victim.AddressSpace().Read64Virt(vic.Sym("out"))
	if err != nil {
		return nil, err
	}
	res.ResultOK = out == vic.ModExpResult()
	if !res.ResultOK {
		return res, fmt.Errorf("experiments: victim computed %d, want %d", out, vic.ModExpResult())
	}
	return res, nil
}
