// Package replay implements the generalized microarchitectural replay
// attacks of the paper's Section 7 (Fig. 12): replay handles beyond
// page-faulting loads — TSX transaction aborts and branch mispredictions —
// and the RDRAND integrity-bias attack with the fence that defeats it.
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

// HandleKind names a replay-handle mechanism (Fig. 12 left box).
type HandleKind int

// Replay-handle mechanisms.
const (
	HandlePageFault  HandleKind = iota // unbounded replays (MicroScope proper)
	HandleTSXAbort                     // unbounded; window = transaction length
	HandleMispredict                   // bounded by predictor training
)

// String returns the mechanism name.
func (k HandleKind) String() string {
	switch k {
	case HandlePageFault:
		return "page-fault"
	case HandleTSXAbort:
		return "tsx-abort"
	case HandleMispredict:
		return "branch-mispredict"
	}
	return fmt.Sprintf("HandleKind(%d)", int(k))
}

// Result reports one replay-handle experiment: how many times the
// transmit instruction re-executed and whether its side-channel footprint
// was observable.
type Result struct {
	Kind     HandleKind
	Replays  int
	Leaked   bool
	Unbound  bool // mechanism supports attacker-chosen replay counts
	WindowOK bool // transmit executed inside the replayed window
}

// transmitVA is the probe location the transmit instruction touches.
const (
	dataVA     mem.Addr = 0x0040_0000
	transmitVA mem.Addr = 0x0041_0000
)

// transmitFootprint reports whether the transmit line is cached.
func transmitFootprint(r *platform.Rig) (bool, error) {
	pa, err := r.Victim.AddressSpace().Translate(transmitVA)
	if err != nil {
		return false, err
	}
	return r.Core.Hierarchy().LevelOf(pa) != cache.LevelMem, nil
}

func flushTransmit(r *platform.Rig) error {
	pa, err := r.Victim.AddressSpace().Translate(transmitVA)
	if err != nil {
		return err
	}
	r.Core.Hierarchy().FlushAddr(pa)
	return nil
}

// RunPageFaultHandle replays a transmit load `replays` times via the
// standard MicroScope page-fault handle.
func RunPageFaultHandle(replays int) (*Result, error) {
	r, err := platform.New(cpu.DefaultConfig())
	if err != nil {
		return nil, err
	}
	l := &victim.Layout{
		Name: "pf-handle",
		Prog: isa.NewBuilder().
			MovImm(isa.R1, int64(dataVA)).
			MovImm(isa.R2, int64(transmitVA)).
			Load(isa.R3, isa.R1, 0). // replay handle
			Load(isa.R4, isa.R2, 0). // transmit
			Halt().MustBuild(),
		Regions: []victim.Region{
			{Name: "data", VA: dataVA, Size: mem.PageSize, Flags: mem.FlagUser | mem.FlagWritable},
			{Name: "probe", VA: transmitVA, Size: mem.PageSize, Flags: mem.FlagUser | mem.FlagWritable},
		},
		Symbols: map[string]mem.Addr{"handle": dataVA},
	}
	if err := r.InstallVictim(l); err != nil {
		return nil, err
	}

	res := &Result{Kind: HandlePageFault, Unbound: true}
	rec := &microscope.Recipe{
		Name:   "pf",
		Victim: r.Victim,
		Handle: dataVA,
	}
	var cbErr error
	rec.OnReplay = func(ev microscope.Event) microscope.Decision {
		res.Replays = ev.Replays
		leaked, err := transmitFootprint(r)
		if err != nil {
			cbErr = err
			return microscope.Release
		}
		if leaked {
			res.WindowOK = true
		}
		if ev.Replays >= replays {
			return microscope.Release
		}
		// Re-flush so each replay's footprint is a fresh observation.
		if err := flushTransmit(r); err != nil {
			cbErr = err
			return microscope.Release
		}
		return microscope.Replay
	}
	if err := r.Module.Install(rec); err != nil {
		return nil, err
	}
	l.Start(r.Kernel, 0)
	runErr := r.Run(50_000_000)
	if cbErr != nil {
		return nil, cbErr
	}
	if runErr != nil {
		return nil, runErr
	}
	res.Leaked = res.WindowOK
	return res, nil
}

// RunTSXAbortHandle replays a transmit load by repeatedly aborting the
// transaction that contains it. Unlike the page-fault handle, the window
// is the whole transaction, not the ROB (§7.1) — and the transmit even
// RETIRES before each abort, so a FENCE inside the transaction does not
// stop the replay.
func RunTSXAbortHandle(replays int, fenced bool) (*Result, error) {
	r, err := platform.New(cpu.DefaultConfig())
	if err != nil {
		return nil, err
	}
	b := isa.NewBuilder().
		MovImm(isa.R2, int64(transmitVA)).
		MovImm(isa.R5, int64(replays)).
		Label("retry").
		TxBegin("retry")
	if fenced {
		b.Fence()
	}
	b.Load(isa.R4, isa.R2, 0). // transmit inside the transaction
					MovImm(isa.R6, 1).
					Store(isa.R6, isa.R2, 512). // dirty line: the attacker's abort lever
		// Trailing transaction work (a realistic body is longer than the
		// sensitive prefix); also gives the attacker its abort window.
		MovImm(isa.R7, 40).
		Label("body").
		AddImm(isa.R7, isa.R7, -1).
		Bne(isa.R7, isa.R0, "body").
		TxEnd().
		Halt()
	l := &victim.Layout{
		Name: "tsx-handle",
		Prog: b.MustBuild(),
		Regions: []victim.Region{
			{Name: "probe", VA: transmitVA, Size: mem.PageSize, Flags: mem.FlagUser | mem.FlagWritable},
		},
	}
	if err := r.InstallVictim(l); err != nil {
		return nil, err
	}

	dirtyPA, err := r.Victim.AddressSpace().Translate(transmitVA + 512)
	if err != nil {
		return nil, err
	}
	res := &Result{Kind: HandleTSXAbort, Unbound: true}
	l.Start(r.Kernel, 0)
	ctx := r.Core.Context(0)
	for res.Replays < replays {
		// Run until the transmit has executed inside the transaction and
		// the dirty line has joined the write set.
		ok := r.Core.RunUntil(func() bool {
			leaked, _ := transmitFootprint(r)
			dirty, _ := r.Victim.AddressSpace().Read64Virt(transmitVA + 512)
			return ctx.InTx() && leaked && dirty == 1
		}, 1_000_000)
		if !ok {
			return nil, fmt.Errorf("replay: transaction window never observed")
		}
		res.WindowOK = true
		res.Replays++
		if res.Replays >= replays {
			break
		}
		// Attacker-induced abort: evict a line of the transaction's write
		// set from the private cache (§7.1 — "Intel's TSX will abort a
		// transaction if dirty data is evicted from the private cache,
		// which can be easily controlled by an attacker").
		if !r.Core.EvictLine(dirtyPA) {
			return nil, fmt.Errorf("replay: write-set eviction did not abort")
		}
		if err := flushTransmit(r); err != nil {
			return nil, err
		}
		// Memory is not rolled back by the abort; clear the marker so the
		// next attempt's commit is observable again.
		if err := r.Victim.AddressSpace().Write64Virt(transmitVA+512, 0); err != nil {
			return nil, err
		}
	}
	if err := r.Run(10_000_000); err != nil {
		return nil, err
	}
	res.Leaked = res.WindowOK
	return res, nil
}

// RunMispredictHandle replays a transmit load in the shadow of a branch
// the adversary primed to mispredict. The number of replays is bounded
// by predictor training — the victim eventually makes forward progress
// (§7.1: "the application will eventually make forward progress").
func RunMispredictHandle() (*Result, error) {
	r, err := platform.New(cpu.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// The victim loops; each iteration's branch is primed to go the
	// wrong way, transiently executing the transmit load.
	b := isa.NewBuilder().
		MovImm(isa.R1, 4). // iterations
		MovImm(isa.R2, int64(transmitVA)).
		MovImm(isa.R3, 1)
	b.Label("loop")
	branchPC := b.Here()
	b.Beq(isa.R3, isa.R0, "leak"). // never actually taken
					AddImm(isa.R1, isa.R1, -1).
					Bne(isa.R1, isa.R0, "loop").
					Halt().
					Label("leak").
					Load(isa.R4, isa.R2, 0). // transient transmit
					Halt()
	l := &victim.Layout{
		Name: "bp-handle",
		Prog: b.MustBuild(),
		Regions: []victim.Region{
			{Name: "probe", VA: transmitVA, Size: mem.PageSize, Flags: mem.FlagUser | mem.FlagWritable},
		},
	}
	if err := r.InstallVictim(l); err != nil {
		return nil, err
	}

	// Prime the predictor so the branch predicts taken (toward the leak).
	ctx := r.Core.Context(0)
	ctx.Predictor().Prime(branchPC, true, l.Prog.Instrs[branchPC].Target)

	l.Start(r.Kernel, 0)
	if err := r.Run(10_000_000); err != nil {
		return nil, err
	}
	leaked, err := transmitFootprint(r)
	if err != nil {
		return nil, err
	}
	return &Result{
		Kind:     HandleMispredict,
		Replays:  int(ctx.Stats().Mispredicts),
		Leaked:   leaked,
		Unbound:  false,
		WindowOK: leaked,
	}, nil
}
