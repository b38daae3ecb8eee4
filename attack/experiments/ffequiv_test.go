package experiments

import (
	"testing"

	"microscope/attack/microscope"
	"microscope/attack/monitor"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/isa"
	"microscope/sim/trace"
)

// The fast-forward differential suite: every builtin victim is driven
// through a full replay attack twice — Config.FastForward on and off —
// and the two runs must be indistinguishable: identical pipeline event
// streams (every fetch/issue/complete/retire/squash/fault, cycle-stamped),
// identical final cycle counts, identical architectural registers and
// identical per-context statistics. This is the equivalence guarantee
// documented on Config.FastForward, checked end to end through the
// kernel, the MicroScope module, SMT contention and fault replay.

// ffDigest summarizes everything observable about one run.
type ffDigest struct {
	traceHash uint64
	events    int
	cycles    uint64
	skipped   uint64
	replays   int
	faults    int
	regs      [2][isa.NumRegs]uint64
	stats     [2]cpu.ContextStats
}

// ffAssertEqual requires two runs of the same scenario to be
// observationally identical (trace hash, cycles, replays, registers,
// statistics); skipped-cycle totals are compared by the fast-forward
// suite, which controls that feature.
func ffAssertEqual(t *testing.T, on, off ffDigest, onLabel, offLabel string) {
	t.Helper()
	if on.traceHash != off.traceHash || on.events != off.events {
		t.Errorf("trace diverges: %d events hash %#x (%s) vs %d events hash %#x (%s)",
			on.events, on.traceHash, onLabel, off.events, off.traceHash, offLabel)
	}
	if on.cycles != off.cycles {
		t.Errorf("final cycle diverges: %d (%s) vs %d (%s)", on.cycles, onLabel, off.cycles, offLabel)
	}
	if on.replays != off.replays || on.faults != off.faults {
		t.Errorf("replay counts diverge: %d/%d (%s) vs %d/%d (%s)",
			on.replays, on.faults, onLabel, off.replays, off.faults, offLabel)
	}
	for i := range on.regs {
		if on.regs[i] != off.regs[i] {
			t.Errorf("context %d registers diverge:\n %s: %v\n%s: %v",
				i, onLabel, on.regs[i], offLabel, off.regs[i])
		}
		if on.stats[i] != off.stats[i] {
			t.Errorf("context %d stats diverge:\n %s: %+v\n%s: %+v",
				i, onLabel, on.stats[i], offLabel, off.stats[i])
		}
	}
}

// ffScenario describes one victim attack setup.
type ffScenario struct {
	name    string
	layout  func(t *testing.T) *victim.Layout
	handle  string // symbol of the replay-handle page
	monitor bool   // schedule a port-contention monitor on SMT context 1
}

func ffScenarios() []ffScenario {
	return []ffScenario{
		{
			name:    "controlflow-mul",
			layout:  func(*testing.T) *victim.Layout { return victim.ControlFlowSecret(false) },
			handle:  "handle",
			monitor: true,
		},
		{
			name:    "controlflow-div",
			layout:  func(*testing.T) *victim.Layout { return victim.ControlFlowSecret(true) },
			handle:  "handle",
			monitor: true,
		},
		{
			name:   "singlesecret-subnormal",
			layout: func(*testing.T) *victim.Layout { return victim.SingleSecret(7, true) },
			handle: "count",
		},
		{
			name:   "loopsecret",
			layout: func(*testing.T) *victim.Layout { return victim.LoopSecret([]byte{1, 2, 3}) },
			handle: "handle",
		},
		{
			name: "aes",
			layout: func(t *testing.T) *victim.Layout {
				key := []byte("0123456789abcdef")
				ct := []byte("fedcba9876543210")
				v, err := victim.NewAESVictim(key, ct)
				if err != nil {
					t.Fatal(err)
				}
				return v.Layout
			},
			handle: "rk",
		},
		{
			name: "modexp",
			layout: func(t *testing.T) *victim.Layout {
				v, err := victim.NewModExpVictim(777, 0xA5A5, 99991, 16)
				if err != nil {
					t.Fatal(err)
				}
				return v.Layout
			},
			handle: "handle",
		},
		{
			name:   "rdrand-bias",
			layout: func(*testing.T) *victim.Layout { return victim.RdrandBias() },
			handle: "handle",
		},
	}
}

// ffJitterConfig is the base configuration of the fast-forward suite:
// per-instruction timing noise on, so equivalence must survive it.
func ffJitterConfig() cpu.Config {
	cfg := cpu.DefaultConfig()
	cfg.JitterPeriod = 901
	cfg.JitterExtra = 150
	return cfg
}

// runFFScenario mounts the scenario under the given core configuration
// and digests the run.
func runFFScenario(t *testing.T, sc ffScenario, cfg cpu.Config) ffDigest {
	t.Helper()
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
		Name:           "ffequiv-" + sc.name,
		Victim:         rig.Victim,
		Handle:         vic.Sym(sc.handle),
		HandlerLatency: 20_000, // stall-heavy: most of the run is skippable
		MaxReplays:     8,
	}
	if sc.monitor {
		// Fig. 10 shape: keep replaying until the monitor finishes its
		// measurement run (a state-based condition, identical under skip).
		rec.OnReplay = func(microscope.Event) microscope.Decision {
			if rig.Core.Context(1).Halted() {
				return microscope.Release
			}
			return microscope.Replay
		}
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
	if err := rig.Run(5_000_000); err != nil {
		t.Fatalf("fastForward=%v: %v", cfg.FastForward, err)
	}

	d := ffDigest{
		traceHash: h.Sum64(),
		events:    int(h.Events()),
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
		s := ctx.Stats()
		s.SkippedCycles = 0 // the only field allowed to differ
		d.stats[i] = s
	}
	return d
}

func TestFastForwardEquivalence(t *testing.T) {
	for _, sc := range ffScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			onCfg := ffJitterConfig()
			onCfg.FastForward = true
			offCfg := ffJitterConfig()
			offCfg.FastForward = false
			on := runFFScenario(t, sc, onCfg)
			off := runFFScenario(t, sc, offCfg)

			if off.skipped != 0 {
				t.Errorf("skip-off run skipped %d cycles", off.skipped)
			}
			if on.skipped == 0 {
				t.Errorf("skip-on run skipped nothing: the scenario does not exercise fast-forward")
			}
			if on.skipped != off.skipped && off.skipped != 0 {
				t.Errorf("skipped cycles diverge: %d (on) vs %d (off)", on.skipped, off.skipped)
			}
			ffAssertEqual(t, on, off, " on", "off")
		})
	}
}
