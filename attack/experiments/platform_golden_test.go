package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"

	"microscope/attack/baseline"
	"microscope/attack/defense"
	"microscope/attack/replay"
)

// The golden platform results pin the entry points outside the builtin
// victims' trace goldens: the §8 countermeasure runs, the §7 replay
// handles and RDRAND bias, the §2.4 baselines and the enclave attack.
// Each records the %+v rendering of its result, so any change to how
// these experiments assemble or drive their platform that moves a
// single counter fails here. Regenerate after an *intentional* change
// with:
//
//	go test ./attack/experiments -run TestGoldenPlatformResults -update

const goldenPlatformPath = "testdata/golden_platform_results.json"

var (
	ppKey       = []byte("0123456789abcdef")
	ppPlaintext = []byte("attack at dawn!!")
)

// platformRuns are the pinned entry points, with the arguments the
// cmd/microscope subcommands and the root benchmarks use.
var platformRuns = map[string]func() (any, error){
	"defense.RunDejaVu/naive":          func() (any, error) { return defense.RunDejaVu(10_000, 5, 5_000) },
	"defense.RunDejaVu/masked":         func() (any, error) { return defense.RunDejaVu(10_000, 2, 1_200) },
	"defense.RunTSGX":                  func() (any, error) { return defense.RunTSGX(10) },
	"defense.RunPFOblivious":           func() (any, error) { return defense.RunPFOblivious() },
	"defense.RunFenceAfterFlush":       func() (any, error) { return defense.RunFenceAfterFlush() },
	"defense.RunInvisibleSpeculation":  func() (any, error) { return defense.RunInvisibleSpeculation() },
	"replay.RunPageFaultHandle":        func() (any, error) { return replay.RunPageFaultHandle(10) },
	"replay.RunTSXAbortHandle":         func() (any, error) { return replay.RunTSXAbortHandle(10, false) },
	"replay.RunTSXAbortHandle/fenced":  func() (any, error) { return replay.RunTSXAbortHandle(10, true) },
	"replay.RunMispredictHandle":       func() (any, error) { return replay.RunMispredictHandle() },
	"replay.RunRDRANDBias":             func() (any, error) { return replay.RunRDRANDBias(1, 100, false) },
	"replay.RunRDRANDBias/fenced":      func() (any, error) { return replay.RunRDRANDBias(1, 100, true) },
	"baseline.RunControlledChannel":    func() (any, error) { return baseline.RunControlledChannel(true) },
	"baseline.RunSPM":                  func() (any, error) { return baseline.RunSPM(true) },
	"baseline.RunPrimeProbe":           func() (any, error) { return baseline.RunPrimeProbe(ppKey, ppPlaintext, 0.2, 150, 7, 0) },
	"baseline.RunSGXStep":              func() (any, error) { return baseline.RunSGXStep(ppKey, ppPlaintext, 25, 0) },
	"baseline.RunSGXStep/noisy":        func() (any, error) { return baseline.RunSGXStep(ppKey, ppPlaintext, 25, 7) },
	"experiments.RunEnclaveAttack":     func() (any, error) { return RunEnclaveAttack(true) },
	"experiments.RunEnclaveAttack/off": func() (any, error) { return RunEnclaveAttack(false) },
}

func TestGoldenPlatformResults(t *testing.T) {
	got := make(map[string]string, len(platformRuns))
	for name, run := range platformRuns {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = fmt.Sprintf("%+v", res)
	}

	if *updateGolden {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPlatformPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d results", goldenPlatformPath, len(got))
		return
	}

	data, err := os.ReadFile(goldenPlatformPath)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPlatformPath, err)
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden result committed (run with -update)", name)
			continue
		}
		if got[name] != w {
			t.Errorf("%s: result diverged from golden:\n got %s\nwant %s", name, got[name], w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden result exists but the run is gone", name)
		}
	}
}
