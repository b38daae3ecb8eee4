// Package defense implements the §8 countermeasures the paper analyses —
// T-SGX, Déjà Vu and page-fault obliviousness — together with the attacks
// that measure what each one actually buys against microarchitectural
// replay.
package defense

import (
	"fmt"

	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cache"
	"microscope/sim/cpu"
	"microscope/sim/isa"
	"microscope/sim/mem"
)

const (
	handleVA mem.Addr = 0x0040_0000
	probeVA  mem.Addr = 0x0041_0000
	outVA    mem.Addr = 0x0042_0000
)

const rw = mem.FlagUser | mem.FlagWritable

// TSGXResult reports the T-SGX experiment.
type TSGXResult struct {
	// Threshold is T-SGX's abort budget N (the paper notes the authors
	// use N = 10 because they cannot distinguish page faults from
	// ordinary interrupts).
	Threshold int
	// OSVisibleFaults counts page faults the malicious OS observed
	// (T-SGX's goal is zero: TSX redirects them to the enclave).
	OSVisibleFaults int
	// LeakObservations counts how many distinct replays the attacker
	// could still measure — the paper: "this design decision still
	// provides N−1 replays to MicroScope".
	LeakObservations int
	// VictimTerminated reports that T-SGX tripped its threshold and shut
	// the enclave down.
	VictimTerminated bool
}

// tsgxVictim builds a T-SGX-protected victim: the sensitive code (a
// transmit load followed by a load the OS has armed) runs inside a TSX
// transaction; the abort handler retries until the abort budget N is
// exhausted, then terminates (T-SGX's tsx-abort policy).
func tsgxVictim(n int) *victim.Layout {
	b := isa.NewBuilder().
		MovImm(isa.R1, int64(handleVA)).
		MovImm(isa.R2, int64(probeVA)).
		MovImm(isa.R7, int64(outVA)).
		Label("retry").
		// AbortReg (r15) carries the cumulative abort count.
		TxBegin("aborted").
		Load(isa.R4, isa.R2, 0). // sensitive transmit (leaks each replay)
		Load(isa.R5, isa.R1, 0). // access the OS armed (faults in-tx)
		TxEnd().
		MovImm(isa.R6, 1).
		Store(isa.R6, isa.R7, 0). // success marker
		Halt().
		Label("aborted").
		MovImm(isa.R13, int64(n)).
		Blt(isa.R15, isa.R13, "retry"). // under budget: retry
		MovImm(isa.R6, 2).
		Store(isa.R6, isa.R7, 0). // terminated marker
		Halt()
	return &victim.Layout{
		Name: "tsgx",
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

// RunTSGX mounts MicroScope against a T-SGX-protected victim with abort
// budget n. T-SGX succeeds at hiding the faults from the OS, but the
// enclave's own retries still replay the sensitive code: the attacker
// passively observes the transmit's cache footprint after each of the
// first n−1 retries.
func RunTSGX(n int) (*TSGXResult, error) {
	rig, err := platform.New(cpu.DefaultConfig())
	if err != nil {
		return nil, err
	}
	core, k, proc := rig.Core, rig.Kernel, rig.Victim
	l := tsgxVictim(n)
	if err := rig.InstallVictim(l); err != nil {
		return nil, err
	}

	// Malicious OS: arm the handle page. No MicroScope module needed —
	// the enclave replays itself via transaction retries.
	if _, err := proc.AddressSpace().SetPresent(handleVA, false); err != nil {
		return nil, err
	}
	k.Invlpg(proc, handleVA)

	probePA, err := proc.AddressSpace().Translate(probeVA)
	if err != nil {
		return nil, err
	}
	core.Hierarchy().FlushAddr(probePA)

	res := &TSGXResult{Threshold: n}
	l.Start(k, 0)
	ctx := core.Context(0)
	lastAborts := uint64(0)
	for steps := 0; steps < 50_000_000 && !ctx.Halted(); steps++ {
		core.Step()
		// Attacker's passive probe: after each abort, check and re-flush
		// the transmit footprint.
		if a := ctx.Stats().TxAborts; a != lastAborts {
			lastAborts = a
			if core.Hierarchy().LevelOf(probePA) != cache.LevelMem {
				res.LeakObservations++
				core.Hierarchy().FlushAddr(probePA)
			}
		}
	}
	if !ctx.Halted() {
		return nil, fmt.Errorf("defense: tsgx victim did not finish")
	}
	res.OSVisibleFaults = int(ctx.Stats().PageFaults)
	marker, err := proc.AddressSpace().Read64Virt(outVA)
	if err != nil {
		return nil, err
	}
	res.VictimTerminated = marker == 2
	return res, nil
}
