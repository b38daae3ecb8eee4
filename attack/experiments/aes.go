package experiments

import (
	"bytes"
	"fmt"

	"microscope/analysis/sidechan"
	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/crypto/taes"
	"microscope/sim/cache"
	"microscope/sim/cpu"
	"microscope/sim/mem"
)

// AESConfig parameterizes the §4.4/§6.2 AES attacks.
type AESConfig struct {
	Key            []byte
	Plaintext      []byte // the attack decrypts Enc(Key, Plaintext)
	HandlerLatency uint64
	WalkLevels     int
}

// DefaultAESConfig returns a 128-bit-key configuration.
func DefaultAESConfig() AESConfig {
	return AESConfig{
		Key:            []byte("0123456789abcdef"),
		Plaintext:      []byte("attack at dawn!!"),
		HandlerLatency: 5_000,
		WalkLevels:     4,
	}
}

// TrialPlaintext derives the deterministic one-block plaintext for sweep
// trial i (a splitmix/xorshift stream keyed by the index alone), so
// multi-trial sweeps are reproducible for any worker count without
// sharing a *rand.Rand across goroutines.
func TrialPlaintext(trial int) []byte {
	pt := make([]byte, taes.BlockSize)
	x := uint64(trial)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	for i := range pt {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		pt[i] = byte(x >> 32)
	}
	return pt
}

// aesRig bundles the platform with the AES victim and its probe lists.
type aesRig struct {
	*platform.Rig
	vic       *victim.AESVictim
	allLines  []mem.Addr // Td0..Td3 + Td4 cache-line addresses (80)
	lineTable []int      // parallel: table index per probe address
	lineIdx   []int      // parallel: line index within table
}

func newAESRig(cfg AESConfig) (*aesRig, []byte, error) {
	c, err := taes.NewCipher(cfg.Key)
	if err != nil {
		return nil, nil, err
	}
	if len(cfg.Plaintext) != taes.BlockSize {
		return nil, nil, fmt.Errorf("experiments: plaintext must be one block")
	}
	ct := make([]byte, taes.BlockSize)
	c.Encrypt(ct, cfg.Plaintext)

	rig, err := platform.New(cpu.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	vic, err := victim.NewAESVictim(cfg.Key, ct)
	if err != nil {
		return nil, nil, err
	}
	if err := rig.InstallVictim(vic.Layout); err != nil {
		return nil, nil, err
	}
	ar := &aesRig{Rig: rig, vic: vic}
	for tbl := 0; tbl < 5; tbl++ {
		for line := 0; line < taes.LinesPerTable; line++ {
			ar.allLines = append(ar.allLines, vic.TdLineVA(tbl, line))
			ar.lineTable = append(ar.lineTable, tbl)
			ar.lineIdx = append(ar.lineIdx, line)
		}
	}
	return ar, ct, nil
}

// forkAESRig adapts a pooled rig — already restored to the template's
// post-install checkpoint — to one sweep trial: it encrypts the trial
// plaintext and writes the ciphertext into the victim's in page,
// leaving the machine in exactly the state newAESRig would have built
// for that plaintext. The victim program, symbols and probe lists are
// ciphertext-independent and shared read-only with the template.
func forkAESRig(template *aesRig, rig *platform.Rig, cfg AESConfig) (*aesRig, []byte, error) {
	c, err := taes.NewCipher(cfg.Key)
	if err != nil {
		return nil, nil, err
	}
	if len(cfg.Plaintext) != taes.BlockSize {
		return nil, nil, fmt.Errorf("experiments: plaintext must be one block")
	}
	ct := make([]byte, taes.BlockSize)
	c.Encrypt(ct, cfg.Plaintext)
	img, err := victim.AESInImage(ct)
	if err != nil {
		return nil, nil, err
	}
	if err := rig.Victim.AddressSpace().WriteVirt(victim.AESInVA, img); err != nil {
		return nil, nil, err
	}
	return &aesRig{
		Rig:       rig,
		vic:       template.vic,
		allLines:  template.allLines,
		lineTable: template.lineTable,
		lineIdx:   template.lineIdx,
	}, ct, nil
}

// probeMasks probes every Td line and returns per-table bitmasks of
// cached (≠ memory) lines.
func (ar *aesRig) probeMasks() ([5]uint16, error) {
	var masks [5]uint16
	res, err := ar.Module.ProbeAddrs(ar.Victim, ar.allLines)
	if err != nil {
		return masks, err
	}
	for i, pr := range res {
		if pr.Level != cache.LevelMem {
			masks[ar.lineTable[i]] |= 1 << uint(ar.lineIdx[i])
		}
	}
	return masks, nil
}

// prime evicts every Td line to memory.
func (ar *aesRig) prime() error {
	return ar.Module.PrimeAddrs(ar.Victim, ar.allLines)
}

// truthMasks computes the ground-truth per-round per-table line masks
// from the reference decryption trace.
func truthMasks(key, ct []byte) (map[int][5]uint16, error) {
	c, err := taes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	out := make([]byte, taes.BlockSize)
	trace := c.DecryptTrace(out, ct)
	truth := make(map[int][5]uint16)
	for _, a := range trace {
		m := truth[a.Round]
		m[a.Table] |= 1 << uint(a.Line())
		truth[a.Round] = m
	}
	return truth, nil
}

// ---------------------------------------------------------------------
// Figure 11
// ---------------------------------------------------------------------

// Fig11Result reproduces Figure 11: the latency the Replayer observes for
// each of Td1's 16 cache lines after each of three replays of one
// decryption-round window.
type Fig11Result struct {
	// Latencies[replay][line], in cycles.
	Latencies [3][16]uint64
	// Truth is the ground-truth bitmask of Td1 lines accessed in round 1.
	Truth uint16
	// Extracted[i] is the L1-classified line mask after primed replay i+1.
	Extracted [2]uint16
	// Replay0Bands counts distinct latency bands in the unprimed probe —
	// the paper's replay 0 spans L1 / L2-L3 / memory.
	Replay0Bands int
}

// Consistent reports whether the two primed replays agree and match the
// ground truth — the "no noise in a single logical run" claim.
func (f *Fig11Result) Consistent() bool {
	return f.Extracted[0] == f.Extracted[1] && f.Extracted[0] == f.Truth
}

// RunFig11 mounts the Fig. 11 experiment: the replay handle is an rk
// access, the pivot is the first Td0 access of round 1, and the round's
// window is replayed three times — unprimed once, then twice into a
// primed cache.
func RunFig11(cfg AESConfig) (*Fig11Result, error) {
	ar, ct, err := newAESRig(cfg)
	if err != nil {
		return nil, err
	}
	truth, err := truthMasks(cfg.Key, ct)
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{Truth: truth[1][1]}

	// Ambient cache state: before the attack, Td1 lines sit at assorted
	// hierarchy levels (leftovers of other activity on the machine).
	for line := 0; line < taes.LinesPerTable; line++ {
		pa, err := ar.Victim.AddressSpace().Translate(ar.vic.TdLineVA(1, line))
		if err != nil {
			return nil, err
		}
		switch line % 3 {
		case 0:
			ar.Core.Hierarchy().WarmTo(pa, cache.LevelL2)
		case 1:
			ar.Core.Hierarchy().WarmTo(pa, cache.LevelL3)
		default:
			ar.Core.Hierarchy().WarmTo(pa, cache.LevelMem)
		}
	}

	probeTd1 := func(into *[16]uint64) error {
		var addrs []mem.Addr
		for line := 0; line < taes.LinesPerTable; line++ {
			addrs = append(addrs, ar.vic.TdLineVA(1, line))
		}
		prs, err := ar.Module.ProbeAddrs(ar.Victim, addrs)
		if err != nil {
			return err
		}
		for i, pr := range prs {
			into[i] = uint64(pr.Latency)
		}
		return nil
	}

	var probeErr error
	arrival := 0
	rec := &microscope.Recipe{
		Name:           "fig11",
		Victim:         ar.Victim,
		Handle:         ar.vic.Sym("rk"),
		Pivot:          ar.vic.Sym("td0"),
		WalkLevels:     cfg.WalkLevels,
		HandlerLatency: cfg.HandlerLatency,
	}
	rec.OnReplay = func(ev microscope.Event) microscope.Decision {
		if !ev.OnPivot {
			// Prologue rk fault: advance to the round-1 pivot.
			return microscope.Pivot
		}
		if arrival > 2 {
			return microscope.Release
		}
		if probeErr = probeTd1(&res.Latencies[arrival]); probeErr != nil {
			return microscope.Release
		}
		arrival++
		if arrival > 2 {
			return microscope.Release
		}
		// Prime Td1 (evict to memory) and replay the window.
		if probeErr = ar.prime(); probeErr != nil {
			return microscope.Release
		}
		return microscope.Replay
	}
	if err := ar.Module.Install(rec); err != nil {
		return nil, err
	}
	ar.vic.Start(ar.Kernel, 0)
	if err := ar.Run(50_000_000); err != nil {
		return nil, err
	}
	if probeErr != nil {
		return nil, probeErr
	}
	if arrival != 3 {
		return nil, fmt.Errorf("experiments: fig11 saw %d pivot arrivals, want 3", arrival)
	}

	// Classify.
	bands := sidechan.DefaultCacheBands()
	res.Replay0Bands = bands.DistinctBands(res.Latencies[0][:])
	l1Lat := uint64(ar.Core.Hierarchy().HitLatency(cache.LevelL1))
	for rep := 1; rep <= 2; rep++ {
		for line := 0; line < 16; line++ {
			if res.Latencies[rep][line] <= l1Lat {
				res.Extracted[rep-1] |= 1 << uint(line)
			}
		}
	}

	// The victim must still decrypt correctly after release.
	pt, err := ar.vic.Plaintext(func(va mem.Addr) (uint64, error) {
		return ar.Victim.AddressSpace().Read64Virt(va)
	})
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(pt, cfg.Plaintext) {
		return nil, fmt.Errorf("experiments: victim corrupted: plaintext %x", pt)
	}
	return res, nil
}
