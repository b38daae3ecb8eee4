package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microscope/sim/trace"
)

// The CLI acceptance check: `microscope -trace out.json -metrics
// timeline` must emit a schema-valid Chrome Trace Event JSON of a full
// replay attack, byte-identically across runs.
func TestTimelineTraceFlagEmitsValidChrome(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.json")

	oldTrace, oldMetrics := *traceOut, *showMetrics
	defer func() { *traceOut, *showMetrics = oldTrace, oldMetrics }()
	*traceOut = out
	*showMetrics = true

	if err := runTimeline(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(data); err != nil {
		t.Fatalf("-trace output fails Chrome trace schema validation: %v", err)
	}
	// The annotated replay track must make it into the export.
	if !bytes.Contains(data, []byte("replayer: timeline")) {
		t.Error("-trace output is missing the module's replayer annotation track")
	}

	// Determinism: a second run writes identical bytes.
	out2 := filepath.Join(dir, "out2.json")
	*traceOut = out2
	if err := runTimeline(); err != nil {
		t.Fatal(err)
	}
	data2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("-trace output differs between identical runs")
	}
}

// captureStdout runs f with os.Stdout redirected to a temporary file and
// returns everything f printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	old := os.Stdout
	os.Stdout = tmp
	err = f()
	os.Stdout = old
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// `microscope -stats timeline` appends the statistics block: the core,
// per-context and host lines are present, and everything above the host
// line (the timeline and the simulated counters) is byte-identical
// across runs.
func TestTimelineStatsFlag(t *testing.T) {
	old := *showStats
	defer func() { *showStats = old }()
	*showStats = true

	var aboveHost [2]string
	for i := range aboveHost {
		out := captureStdout(t, runTimeline)
		for _, prefix := range []string{"core:", "ctx0:", "host:"} {
			if !strings.Contains(out, "\n"+prefix) {
				t.Errorf("run %d: -stats output has no %q line:\n%s", i, prefix, out)
			}
		}
		if strings.Contains(out, "\nmemo:") {
			t.Errorf("run %d: -stats output still prints a memo line:\n%s", i, out)
		}
		aboveHost[i], _, _ = strings.Cut(out, "\nhost:")
	}
	if aboveHost[0] != aboveHost[1] {
		t.Errorf("-stats output above the host line differs between runs:\n%s\n---\n%s",
			aboveHost[0], aboveHost[1])
	}
}

// TestFlagPlaceholders guards -h against misleading argument names: the
// flag package turns a back-quoted word in a usage string into the
// flag's placeholder, so "(`tournament` only)" once rendered the bool
// -json as "-json tournament". Every placeholder must be empty (bools)
// or the value's type name.
func TestFlagPlaceholders(t *testing.T) {
	typeNames := map[string]bool{"": true, "string": true, "int": true, "uint": true, "float": true, "duration": true, "value": true}
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return // registered by the testing package
		}
		if name, _ := flag.UnquoteUsage(f); !typeNames[name] {
			t.Errorf("-%s shows placeholder %q; drop the back-quotes from its usage", f.Name, name)
		}
	})
}
