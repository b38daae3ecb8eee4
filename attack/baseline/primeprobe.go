package baseline

import (
	"math/rand"

	"microscope/analysis/sweep"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/crypto/taes"
	"microscope/sim/cache"
	"microscope/sim/cpu"
)

// PrimeProbeResult contrasts a conventional multi-run Prime+Probe cache
// attack on the AES victim against MicroScope's single-run extraction:
//
//   - Temporal resolution: without replay, one probe per complete victim
//     run observes only the UNION of all rounds' accesses.
//   - Noise: with realistic measurement noise (cache pollution, coarse
//     PMU counters — §2.4), the attacker majority-votes across many
//     victim runs; the paper cites ~300 traces for modest reliability.
type PrimeProbeResult struct {
	// UnionTruth is the true union of Td1 lines over all rounds.
	UnionTruth uint16
	// SingleRunObserved is one noisy single-trace observation.
	SingleRunObserved uint16
	// TracesTo99 is the number of victim runs (traces) the majority vote
	// needed before the union estimate stayed correct with 99% per-line
	// confidence.
	TracesTo99 int
	// PerRoundResolved reports whether the attack can attribute lines to
	// rounds (it cannot: false by construction, unlike MicroScope).
	PerRoundResolved bool
}

// RunPrimeProbe mounts the baseline attack: for each victim run, prime
// Td1's lines, run the AES decryption to completion (no replay — the
// victim runs once per trace, so each trace needs a fresh victim run,
// which the threat model forbids for run-once applications), probe, and
// apply measurement noise with the given per-line flip probability.
//
// Each trace derives its own noise stream from seed + traceIndex (a
// *rand.Rand is not goroutine-safe, and a shared stream would make the
// result depend on scheduling), so the traces are independent and the
// collection runs as a parallel sweep over `workers` goroutines (<= 0
// selects GOMAXPROCS) with output identical to the serial run. The
// majority vote is then folded in trace order.
func RunPrimeProbe(key, plaintext []byte, flipProb float64, maxTraces int, seed int64, workers int) (*PrimeProbeResult, error) {
	c, err := taes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	ct := make([]byte, taes.BlockSize)
	c.Encrypt(ct, plaintext)

	// Ground truth: union of Td1 lines over every round.
	out := make([]byte, taes.BlockSize)
	lines := taes.AccessedLines(c.DecryptTrace(out, ct))
	res := &PrimeProbeResult{UnionTruth: lines[1]}

	oneTrace := func(trace int) (uint16, error) {
		rng := rand.New(rand.NewSource(sweep.SeedFor(seed, trace)))
		r, err := platform.New(cpu.DefaultConfig())
		if err != nil {
			return 0, err
		}
		vic, err := victim.NewAESVictim(key, ct)
		if err != nil {
			return 0, err
		}
		if err := r.InstallVictim(vic.Layout); err != nil {
			return 0, err
		}
		// Prime: evict all Td1 lines.
		for line := 0; line < taes.LinesPerTable; line++ {
			pa, err := r.Victim.AddressSpace().Translate(vic.TdLineVA(1, line))
			if err != nil {
				return 0, err
			}
			r.Core.Hierarchy().FlushAddr(pa)
		}
		vic.Start(r.Kernel, 0)
		if err := r.Run(20_000_000); err != nil {
			return 0, err
		}
		// Probe with measurement noise: each line's verdict flips with
		// probability flipProb (pollution, preemptions, PMU coarseness).
		var mask uint16
		for line := 0; line < taes.LinesPerTable; line++ {
			pa, err := r.Victim.AddressSpace().Translate(vic.TdLineVA(1, line))
			if err != nil {
				return 0, err
			}
			hot := r.Core.Hierarchy().LevelOf(pa) != cache.LevelMem
			if rng.Float64() < flipProb {
				hot = !hot
			}
			if hot {
				mask |= 1 << uint(line)
			}
		}
		return mask, nil
	}

	// Collect all traces over the worker pool; each is an independent
	// victim run on its own simulated platform.
	masks, err := sweep.Run(maxTraces, sweep.Options{Workers: workers}, oneTrace)
	if err != nil {
		return nil, err
	}
	res.SingleRunObserved = masks[0]

	// Majority vote across traces, folded in trace order; report when the
	// estimate becomes and stays correct for a stretch (stability proxy
	// for 99% confidence).
	votes := make([]int, taes.LinesPerTable)
	total := 0
	stable := 0
	res.TracesTo99 = -1
	apply := func(mask uint16) {
		total++
		for line := 0; line < taes.LinesPerTable; line++ {
			if mask&(1<<uint(line)) != 0 {
				votes[line]++
			}
		}
	}
	estimate := func() uint16 {
		var m uint16
		for line := 0; line < taes.LinesPerTable; line++ {
			if 2*votes[line] > total {
				m |= 1 << uint(line)
			}
		}
		return m
	}
	apply(masks[0])
	for _, mask := range masks[1:] {
		apply(mask)
		if estimate() == res.UnionTruth {
			stable++
			if stable >= 20 && res.TracesTo99 < 0 {
				res.TracesTo99 = total - stable + 1
			}
		} else {
			stable = 0
			res.TracesTo99 = -1
		}
	}
	if estimate() != res.UnionTruth {
		res.TracesTo99 = -1
	}
	return res, nil
}
