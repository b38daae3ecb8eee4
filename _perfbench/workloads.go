package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"microscope/analysis/static"
	"microscope/analysis/verify"
	"microscope/attack/experiments"
	"microscope/crypto/taes"
)

// workload is one benchmark input family.
type workload struct {
	name string
	// round is the number of units that make up one pass over the
	// workload's inputs; a run always measures whole rounds.
	round int
	// setup generates the inputs for a seed and loads the expected
	// outputs from the repository at root.
	setup func(seed int64, root string) (instance, error)
}

// instance is one seeded workload, ready to run.
type instance interface {
	// inputs renders the generated inputs the program receives.
	inputs() string
	// run executes unit i through the public entry points, recording
	// spans of the calls it makes on sp, and returns the check that
	// compares its output with the expected one. The check reports the
	// unit's counts whether or not the output is correct.
	run(i int, sp *spanLog) (check func() (counts, error), err error)
}

// counts are the work a unit did, read from the public results.
type counts struct {
	simCycles   uint64
	replays     uint64
	faults      uint64
	verifySteps uint64
	certTrials  uint64
	unexplained uint64
}

func (c *counts) add(o counts) {
	c.simCycles += o.simCycles
	c.replays += o.replays
	c.faults += o.faults
	c.verifySteps += o.verifySteps
	c.certTrials += o.certTrials
	c.unexplained += o.unexplained
}

var workloads = []workload{
	{name: "fig10-smt", round: 1, setup: setupFig10},
	{name: "aes-keysweep", round: 1, setup: setupAES},
	{name: "tournament", round: 1, setup: setupTournament},
	{name: "mscan-pipeline", round: len(experiments.SanTargets()), setup: setupMscan},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// newRand returns the input generator for a seed.
func newRand(seed int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), 0x6d6963726f73636f))
}

// ---------------------------------------------------------------------
// fig10-smt: the §6.1 port-contention attack on two SMT contexts.
// ---------------------------------------------------------------------

type fig10Inst struct {
	cfg experiments.Fig10Config
	// wantDetected is the expected verdict: the victim runs the div side.
	wantDetected bool
}

// setupFig10 draws the ambient-jitter period around the default (9001
// cycles); every period in the range keeps the paper's separation.
func setupFig10(seed int64, _ string) (instance, error) {
	cfg := experiments.DefaultFig10Config()
	cfg.Workers = 1
	cfg.JitterPeriod = 7001 + newRand(seed).IntN(4000)
	return &fig10Inst{cfg: cfg, wantDetected: true}, nil
}

func (f *fig10Inst) inputs() string {
	return fmt.Sprintf("samples=%d jitter_period=%d", f.cfg.Samples, f.cfg.JitterPeriod)
}

func (f *fig10Inst) run(int, *spanLog) (func() (counts, error), error) {
	res, err := experiments.RunFig10(f.cfg)
	if err != nil {
		return nil, err
	}
	return func() (counts, error) {
		// Every replay of the recipe is one handle page fault.
		r := uint64(res.Mul.Replays + res.Div.Replays)
		c := counts{simCycles: res.Mul.Cycles + res.Div.Cycles, replays: r, faults: r}
		if res.SecretDetected() != f.wantDetected {
			return c, fmt.Errorf("secret detected %v, want %v (separation %.1fx)",
				res.SecretDetected(), f.wantDetected, res.SeparationX)
		}
		return c, nil
	}, nil
}

// ---------------------------------------------------------------------
// aes-keysweep: the §6.2 single-run T-table extraction, eight
// plaintexts forked from one warm checkpoint.
// ---------------------------------------------------------------------

const aesPlaintexts = 8

type aesInst struct {
	cfg experiments.AESConfig
	pts [][]byte
	// wantMatch is the expected ExtractionResult.Match verdict: every
	// targeted line mask equals the crypto/taes reference trace's.
	wantMatch bool
}

func setupAES(seed int64, _ string) (instance, error) {
	rng := newRand(seed)
	cfg := experiments.DefaultAESConfig()
	cfg.Key = randBytes(rng, taes.BlockSize)
	inst := &aesInst{cfg: cfg, wantMatch: true}
	for range aesPlaintexts {
		inst.pts = append(inst.pts, randBytes(rng, taes.BlockSize))
	}
	return inst, nil
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}

func (a *aesInst) inputs() string {
	return fmt.Sprintf("key=%x plaintexts=%x", a.cfg.Key, a.pts)
}

func (a *aesInst) run(int, *spanLog) (func() (counts, error), error) {
	res, err := experiments.RunAESExtractionSweep(a.cfg, a.pts, 1)
	if err != nil {
		return nil, err
	}
	return func() (counts, error) {
		var c counts
		var bad error
		for t, e := range res {
			c.simCycles += e.Cycles
			c.faults += uint64(e.Faults)
			if bad != nil {
				continue
			}
			if ok, diff := e.Match(); ok != a.wantMatch {
				bad = fmt.Errorf("trial %d: match %v, want %v (%s)", t, ok, a.wantMatch, diff)
			} else if !e.PlaintextOK {
				bad = fmt.Errorf("trial %d: victim plaintext wrong", t)
			}
		}
		return c, bad
	}, nil
}

// ---------------------------------------------------------------------
// tournament: the full defense roster, byte-checked against the golden
// matrix. The seed is unused: the roster is the committed one.
// ---------------------------------------------------------------------

type tournInst struct {
	golden []byte
}

func setupTournament(_ int64, root string) (instance, error) {
	golden, err := os.ReadFile(filepath.Join(root, "attack", "experiments", "testdata", "golden_tournament.json"))
	if err != nil {
		return nil, err
	}
	return &tournInst{golden: golden}, nil
}

func (t *tournInst) inputs() string { return "roster=committed" }

func (t *tournInst) run(int, *spanLog) (func() (counts, error), error) {
	m, err := experiments.RunTournament(experiments.TournamentOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	return func() (counts, error) {
		var c counts
		for _, cell := range m.Cells {
			c.simCycles += cell.Cycles
			c.replays += uint64(cell.Replays)
			// The pagefault and selective handles replay on page
			// faults; the others on aborts and squashes.
			if cell.Handle == "pagefault" || cell.Handle == "selective" {
				c.faults += uint64(cell.Replays)
			}
		}
		for _, ctl := range m.Controls {
			c.simCycles += ctl.Cycles
		}
		got, err := m.JSON()
		if err != nil {
			return c, err
		}
		if !bytes.Equal(got, t.golden) {
			return c, fmt.Errorf("matrix differs from the golden file (%d vs %d bytes)", len(got), len(t.golden))
		}
		return c, nil
	}, nil
}

// ---------------------------------------------------------------------
// mscan-pipeline: the full mscan pipeline — static scan, -prove and
// -sanitize — on one builtin victim per unit, round-robin.
// ---------------------------------------------------------------------

type mscanInst struct {
	targets []experiments.SanTarget
	vcfg    verify.Config
	scfg    experiments.SpecSanConfig
	// golden maps each victim to its committed verdict.
	golden map[string]string
}

func setupMscan(seed int64, root string) (instance, error) {
	b, err := os.ReadFile(filepath.Join(root, "cmd", "mscan", "testdata", "golden_verdicts.json"))
	if err != nil {
		return nil, err
	}
	inst := &mscanInst{
		targets: experiments.SanTargets(),
		vcfg:    verify.DefaultConfig(),
		scfg:    experiments.DefaultSpecSanConfig(),
	}
	if err := json.Unmarshal(b, &inst.golden); err != nil {
		return nil, fmt.Errorf("golden verdicts: %w", err)
	}
	inst.vcfg.Seed = newRand(seed).Int64()
	return inst, nil
}

func (m *mscanInst) inputs() string { return fmt.Sprintf("verify_seed=%d", m.vcfg.Seed) }

func (m *mscanInst) run(i int, sp *spanLog) (func() (counts, error), error) {
	t := m.targets[i%len(m.targets)]
	lay, err := t.Build()
	if err != nil {
		return nil, err
	}
	sub := verify.NewSubject(lay)
	h, ok := lay.Symbols[t.Handle]
	if !ok {
		return nil, fmt.Errorf("victim %s has no handle symbol %q", t.Name, t.Handle)
	}
	sub.Handle = h

	start := time.Now()
	if _, err := static.Analyze(lay.Name, lay.Prog, sub.Secrets, m.vcfg.Static); err != nil {
		return nil, err
	}
	mid := time.Now()
	sp.record("static", "unit", i, start, mid)
	res, err := verify.Verify(sub, m.vcfg)
	if err != nil {
		return nil, err
	}
	start, mid = mid, time.Now()
	sp.record("verify", "unit", i, start, mid)
	san, err := experiments.RunSpecSan(t, m.scfg)
	if err != nil {
		return nil, err
	}
	sp.record("sanitize", "unit", i, mid, time.Now())

	return func() (counts, error) {
		un := san.Reconciliation.Unexplained()
		c := counts{
			replays:     uint64(san.Replays),
			faults:      uint64(san.Replays),
			verifySteps: uint64(res.Steps),
			unexplained: uint64(len(un)),
		}
		if res.Certificate != nil {
			c.certTrials = uint64(res.Certificate.Trials)
		}
		if got, want := res.Verdict.String(), m.golden[t.Name]; got != want {
			return c, fmt.Errorf("%s: verdict %s, golden %s", t.Name, got, want)
		}
		if len(un) > 0 {
			return c, fmt.Errorf("%s: %d unexplained reconcile entries", t.Name, len(un))
		}
		return c, nil
	}, nil
}
