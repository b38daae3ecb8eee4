package experiments

import (
	"testing"
)

func TestFig10PortContention(t *testing.T) {
	if testing.Short() {
		t.Skip("full 10k-sample run")
	}
	cfg := DefaultFig10Config()
	res, err := RunFig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("threshold=%d mulOver=%d divOver=%d separation=%.1fx replays(mul=%d div=%d)",
		res.Threshold, res.MulOver, res.DivOver, res.SeparationX,
		res.Mul.Replays, res.Div.Replays)

	if len(res.Mul.Samples) != cfg.Samples || len(res.Div.Samples) != cfg.Samples {
		t.Fatalf("sample counts %d/%d", len(res.Mul.Samples), len(res.Div.Samples))
	}
	// Paper shape: the div side has an order of magnitude more
	// over-threshold samples (16x in the paper), and both counts are a
	// small fraction of the 10,000 samples (most samples land during
	// fault handling).
	if !res.SecretDetected() {
		t.Errorf("separation %.1fx too small to detect the secret", res.SeparationX)
	}
	if res.DivOver < 10 {
		t.Errorf("divOver = %d; contention channel too weak", res.DivOver)
	}
	if res.DivOver > cfg.Samples/10 {
		t.Errorf("divOver = %d; contention implausibly frequent", res.DivOver)
	}
	if res.MulOver > 100 {
		t.Errorf("mulOver = %d; quiet side too noisy", res.MulOver)
	}
	// The victim replayed many times in each single logical run.
	if res.Mul.Replays < 50 || res.Div.Replays < 50 {
		t.Errorf("replays = %d/%d; replay engine not sustained",
			res.Mul.Replays, res.Div.Replays)
	}
}

func TestFig11AESReplays(t *testing.T) {
	res, err := RunFig11(DefaultAESConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("replay0 bands=%d truth=%016b extracted=%016b/%016b",
		res.Replay0Bands, res.Truth, res.Extracted[0], res.Extracted[1])

	// Paper shape: replay 0 (unprimed) spans several hierarchy levels;
	// replays 1 and 2 (primed) are clean, identical, and match ground
	// truth exactly.
	if res.Replay0Bands < 2 {
		t.Errorf("replay 0 spans %d bands, want >= 2", res.Replay0Bands)
	}
	if !res.Consistent() {
		t.Errorf("primed replays inconsistent or wrong: %016b / %016b vs truth %016b",
			res.Extracted[0], res.Extracted[1], res.Truth)
	}
	if res.Truth == 0 || res.Truth == 0xffff {
		t.Errorf("degenerate truth mask %016b", res.Truth)
	}
}

func TestAESFullTraceExtraction(t *testing.T) {
	res, err := RunAESExtraction(DefaultAESConfig())
	if err != nil {
		t.Fatal(err)
	}
	ok, diff := res.Match()
	if !ok {
		t.Errorf("extraction mismatch: %s", diff)
	}
	if !res.PlaintextOK {
		t.Error("victim did not produce correct plaintext after the attack")
	}
	t.Logf("rounds=%d faults=%d", res.Rounds, res.Faults)
	if res.Faults == 0 || res.Faults > 500 {
		t.Errorf("fault count %d implausible", res.Faults)
	}
}

func TestAESExtractionOtherKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple extraction runs")
	}
	for _, tc := range []struct {
		key, pt string
	}{
		{"fedcba9876543210", "sixteen byte msg"},
		{"AAAAAAAAAAAAAAAA", "0000000000000000"},
		// AES-192 (12 rounds) and AES-256 (14 rounds): the stepping
		// machinery must track the longer schedules.
		{"abcdefghijklmnopqrstuvwx", "sixteen byte msg"},
		{"abcdefghijklmnopqrstuvwxyz012345", "sixteen byte msg"},
	} {
		cfg := DefaultAESConfig()
		cfg.Key = []byte(tc.key)
		cfg.Plaintext = []byte(tc.pt)
		res, err := RunAESExtraction(cfg)
		if err != nil {
			t.Fatalf("key %q: %v", tc.key, err)
		}
		if ok, diff := res.Match(); !ok {
			t.Errorf("key %q: %s", tc.key, diff)
		}
		if !res.PlaintextOK {
			t.Errorf("key %q: wrong plaintext", tc.key)
		}
	}
}

func TestAESConfigValidation(t *testing.T) {
	cfg := DefaultAESConfig()
	cfg.Plaintext = []byte("short")
	if _, err := RunFig11(cfg); err == nil {
		t.Error("short plaintext accepted by RunFig11")
	}
	if _, err := RunAESExtraction(cfg); err == nil {
		t.Error("short plaintext accepted by RunAESExtraction")
	}
	cfg = DefaultAESConfig()
	cfg.Key = []byte("badlen")
	if _, err := RunFig11(cfg); err == nil {
		t.Error("bad key length accepted")
	}
}

// TestFig10ConfigValidation: a non-positive sample or division count is
// an error from every Fig. 10 entry point, not a panic inside a sweep
// goroutine.
func TestFig10ConfigValidation(t *testing.T) {
	cases := []struct {
		name          string
		samples, cont int
	}{
		{"zero-samples", 0, 2},
		{"negative-samples", -5, 2},
		{"zero-cont", 100, 0},
		{"negative-cont", 100, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultFig10Config()
			cfg.Samples, cfg.Cont = tc.samples, tc.cont
			if _, err := RunFig10(cfg); err == nil {
				t.Error("RunFig10 accepted the config")
			}
			if _, err := RunFig10Sweep(cfg, 2); err == nil {
				t.Error("RunFig10Sweep accepted the config")
			}
			if _, err := RunFig10SweepColdBoot(cfg, 2); err == nil {
				t.Error("RunFig10SweepColdBoot accepted the config")
			}
		})
	}
}

func TestModExpValidation(t *testing.T) {
	if _, err := RunModExp(5, 3, 7, 0); err == nil {
		t.Error("zero bits accepted")
	}
	if _, err := RunModExp(5, 3, 1<<21, 4); err == nil {
		t.Error("oversized modulus accepted")
	}
	if _, err := RunModExp(50, 3, 7, 4); err == nil {
		t.Error("base >= mod accepted")
	}
	if _, err := RunModExp(5, 0xFFFF, 7, 4); err == nil {
		t.Error("exponent wider than bits accepted")
	}
}

func TestLinesOf(t *testing.T) {
	got := LinesOf(0b1000000000000101)
	if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 15 {
		t.Errorf("LinesOf = %v", got)
	}
	if LinesOf(0) != nil {
		t.Error("LinesOf(0) not nil")
	}
}

func TestFig11OtherKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple fig11 runs")
	}
	for _, tc := range []struct{ key, pt string }{
		{"fedcba9876543210", "sixteen byte msg"},
		{"abcdefghijklmnopqrstuvwxyz012345", "another 16B blk!"}, // AES-256
	} {
		cfg := DefaultAESConfig()
		cfg.Key = []byte(tc.key)
		cfg.Plaintext = []byte(tc.pt)
		res, err := RunFig11(cfg)
		if err != nil {
			t.Fatalf("key %q: %v", tc.key, err)
		}
		if !res.Consistent() {
			t.Errorf("key %q: extracted %016b/%016b vs truth %016b",
				tc.key, res.Extracted[0], res.Extracted[1], res.Truth)
		}
	}
}
