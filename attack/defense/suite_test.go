package defense

import (
	"testing"

	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cache"
	"microscope/sim/cpu"
	"microscope/sim/isa"
	"microscope/sim/kernel"
	"microscope/sim/mem"
)

// runCanonicalAttack mounts the baseline §5 page-fault replay attack
// against a handle-then-transmit victim with the given defense active
// at every layer (Configure, Harden, Install), and returns the
// defense's verdict plus the number of replay windows whose transmit
// footprint the attacker observed.
func runCanonicalAttack(t *testing.T, d Defense, replays int, latency uint64) (Verdict, int) {
	t.Helper()
	cfg := cpu.DefaultConfig()
	d.Configure(&cfg)
	rig, err := platform.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hardened, err := d.Harden(leakVictim())
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.InstallVictim(hardened); err != nil {
		t.Fatal(err)
	}
	if err := d.Install(rig.Kernel, rig.Victim); err != nil {
		t.Fatal(err)
	}

	probePA, err := rig.Victim.AddressSpace().Translate(probeVA)
	if err != nil {
		t.Fatal(err)
	}
	rig.Core.Hierarchy().FlushAddr(probePA)

	leaky := 0
	rec := &microscope.Recipe{
		Name: "canonical", Victim: rig.Victim, Handle: handleVA,
		HandlerLatency: latency, MaxReplays: replays,
	}
	rec.OnReplay = func(ev microscope.Event) microscope.Decision {
		if rig.Core.Hierarchy().LevelOf(probePA) != cache.LevelMem {
			leaky++
			rig.Core.Hierarchy().FlushAddr(probePA)
		}
		if ev.Replays >= replays {
			return microscope.Release
		}
		return microscope.Replay
	}
	if err := rig.Module.Install(rec); err != nil {
		t.Fatal(err)
	}
	hardened.Start(rig.Kernel, 0)
	if err := rig.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	return d.Verdict(rig.Kernel, rig.Core, rig.Victim, 0), leaky
}

// TestDefenseRosterVsCanonicalReplay runs every roster defense against
// the same 8-replay page-fault attack and checks the expected outcome:
// detectors fire, preventers starve the channel, and the two known-weak
// schemes (none, pfoblivious) do neither.
func TestDefenseRosterVsCanonicalReplay(t *testing.T) {
	const replays = 8
	tests := []struct {
		name     string
		detect   bool
		minLeaky int // -1: don't check
		maxLeaky int // -1: don't check
	}{
		// Undefended baseline: nearly every window leaks.
		{"none", false, replays - 2, -1},
		// Jamais Vu: 8 squashes of one PC crosses threshold 6.
		{"jamaisvu", true, -1, -1},
		// Selective delay: the transmit never issues speculatively.
		{"delay", false, -1, 0},
		// LEASH: an 8-fault same-page burst trips the throttle.
		{"leash", true, -1, -1},
		// SIMF: the flush lands before the attacker's probe.
		{"simf", false, -1, 0},
		// Déjà Vu: 8 × 2500 handler cycles blows the 15k stall budget.
		{"dejavu", true, -1, -1},
		// T-SGX: in-tx faults become aborts; 8 aborts hits the budget.
		{"tsgx", true, -1, -1},
		// PF-obliviousness neither detects nor prevents (§8).
		{"pfoblivious", false, -1, -1},
		// Fence-after-flush: only the pre-flush first window may leak.
		{"fence", false, -1, 1},
		// Invisible speculation closes the cache channel entirely.
		{"invisispec", false, -1, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			d := Find(tc.name)
			if d == nil {
				t.Fatalf("defense %q not in roster", tc.name)
			}
			v, leaky := runCanonicalAttack(t, d, replays, 2_500)
			if v.Detected != tc.detect {
				t.Errorf("Detected = %v, want %v (counters %v)",
					v.Detected, tc.detect, v.Counters)
			}
			if tc.minLeaky >= 0 && leaky < tc.minLeaky {
				t.Errorf("leaky windows = %d, want >= %d", leaky, tc.minLeaky)
			}
			if tc.maxLeaky >= 0 && leaky > tc.maxLeaky {
				t.Errorf("leaky windows = %d, want <= %d", leaky, tc.maxLeaky)
			}
		})
	}
}

// TestDefenseRosterSilentOnConstantTime runs every defense over the
// PROVEN-SAFE constant-time control victim with no attack mounted: none
// may report a detection (the tournament's false-positive gate).
func TestDefenseRosterSilentOnConstantTime(t *testing.T) {
	for _, d := range All() {
		t.Run(d.Name(), func(t *testing.T) {
			cfg := cpu.DefaultConfig()
			d.Configure(&cfg)
			rig, err := platform.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			hardened, err := d.Harden(victim.ConstantTime())
			if err != nil {
				t.Fatal(err)
			}
			if err := rig.InstallVictim(hardened); err != nil {
				t.Fatal(err)
			}
			if err := d.Install(rig.Kernel, rig.Victim); err != nil {
				t.Fatal(err)
			}
			hardened.Start(rig.Kernel, 0)
			if err := rig.Run(50_000_000); err != nil {
				t.Fatal(err)
			}
			if v := d.Verdict(rig.Kernel, rig.Core, rig.Victim, 0); v.Detected {
				t.Errorf("false positive on benign run (counters %v)", v.Counters)
			}
		})
	}
}

// TestDefenseEpochReset checks that the stateful detectors forget: a
// Jamais Vu epoch shorter than the replay cadence clears the squash
// counters between faults, and a LEASH window shorter than the handler
// latency never accumulates a burst. Both must stay silent against an
// attack their default configurations catch.
func TestDefenseEpochReset(t *testing.T) {
	v, _ := runCanonicalAttack(t, &JamaisVu{Threshold: 6, Epoch: 200}, 8, 2_500)
	if v.Detected {
		t.Errorf("jamaisvu: epoch-cleared counters still alarmed (counters %v)", v.Counters)
	}
	v, _ = runCanonicalAttack(t,
		&Leash{Config: kernel.LeashConfig{Window: 900, Faults: 4, Penalty: 10_000}},
		8, 2_500)
	if v.Detected {
		t.Errorf("leash: burst outside the window still tripped (counters %v)", v.Counters)
	}
}

const benignDataVA mem.Addr = 0x0060_0000

// benignLayout is a branchy, store-heavy, fault-free loop used to
// measure each defense's overhead on non-attack code. All regions are
// eagerly mapped, so T-SGX's transaction never aborts and the kernel
// defenses see no faults; what remains is each defense's steady-state
// pipeline tax.
func benignLayout() *victim.Layout {
	prog := isa.NewBuilder().
		MovImm(isa.R1, 2000).
		MovImm(isa.R2, int64(benignDataVA)).
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
		Load(isa.R6, isa.R5, 0).
		AddImm(isa.R1, isa.R1, -1).
		Bne(isa.R1, isa.R0, "loop").
		Halt().MustBuild()
	return &victim.Layout{
		Name: "benign",
		Prog: prog,
		Regions: []victim.Region{
			{Name: "data", VA: benignDataVA, Size: 8 * mem.PageSize, Flags: rw},
		},
	}
}

func benignCyclesUnder(t *testing.T, d Defense) uint64 {
	t.Helper()
	cfg := cpu.DefaultConfig()
	d.Configure(&cfg)
	rig, err := platform.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hardened, err := d.Harden(benignLayout())
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.InstallVictim(hardened); err != nil {
		t.Fatal(err)
	}
	if err := d.Install(rig.Kernel, rig.Victim); err != nil {
		t.Fatal(err)
	}
	hardened.Start(rig.Kernel, 0)
	if err := rig.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	return rig.Core.Cycle()
}

// TestDefenseRosterBoundedOverhead bounds every defense's slowdown on
// the benign workload at 3x the undefended baseline — the tournament
// reports the exact permille figures; this test just keeps a regression
// from making a defense pathologically expensive.
func TestDefenseRosterBoundedOverhead(t *testing.T) {
	base := benignCyclesUnder(t, noDefense{})
	if base == 0 {
		t.Fatal("baseline ran in zero cycles")
	}
	for _, d := range All() {
		t.Run(d.Name(), func(t *testing.T) {
			cycles := benignCyclesUnder(t, d)
			permille := (int64(cycles) - int64(base)) * 1000 / int64(base)
			t.Logf("overhead: %d permille (%d -> %d cycles)", permille, base, cycles)
			if cycles > 3*base {
				t.Errorf("overhead %d permille exceeds 3x baseline", permille)
			}
		})
	}
}

// TestRosterNamesUniqueAndFindable guards the matrix keys: every roster
// defense has a distinct, Find-able name.
func TestRosterNamesUniqueAndFindable(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range All() {
		n := d.Name()
		if seen[n] {
			t.Errorf("duplicate defense name %q", n)
		}
		seen[n] = true
		if Find(n) == nil {
			t.Errorf("Find(%q) = nil", n)
		}
	}
	if Find("nonesuch") != nil {
		t.Error("Find(nonesuch) should be nil")
	}
}
