package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microscope/sim/cpu"
	"microscope/sim/kernel"
	"microscope/sim/mem"
	"microscope/sim/snapshot"
)

// writeSnap boots a small machine, runs prep (if any) on its core,
// captures it, applies mutate (if any) to the image and writes it.
func writeSnap(t *testing.T, path string, prep func(*cpu.Core), mutate func(*snapshot.Machine)) {
	t.Helper()
	phys := mem.NewPhysMem(4 << 20)
	core := cpu.NewCore(cpu.DefaultConfig(), phys)
	k := kernel.New(kernel.DefaultConfig(), phys, core)
	p, err := k.NewProcess("victim")
	if err != nil {
		t.Fatal(err)
	}
	k.Schedule(0, p)
	if prep != nil {
		prep(core)
	}
	m, err := snapshot.Capture(phys, core, k)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(m)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Encode(f, m); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadAndDiff(t *testing.T) {
	dir := t.TempDir()
	aPath := filepath.Join(dir, "a.gob")
	bPath := filepath.Join(dir, "b.gob")
	cPath := filepath.Join(dir, "c.gob")
	writeSnap(t, aPath, nil, nil)
	writeSnap(t, bPath, nil, nil)
	writeSnap(t, cPath, nil, func(m *snapshot.Machine) { m.Core.Cycle = 123 })

	a, err := load(aPath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := load(bPath)
	if err != nil {
		t.Fatal(err)
	}
	c, err := load(cPath)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := snapshot.Diff(a, b); len(diffs) != 0 {
		t.Errorf("identical machines diff: %v", diffs)
	}
	if diffs := snapshot.Diff(a, c); len(diffs) == 0 {
		t.Error("mutated machine diffs clean")
	}
	if _, err := load(filepath.Join(dir, "missing.gob")); err == nil {
		t.Error("load of missing file succeeded")
	}
}

// One extra L3 line, filled last but in a lower set than every other
// line, must be reported as exactly one difference naming its set and
// way — not as a shift of every later entry of the sparse line list.
func TestDiffNamesOneCacheLine(t *testing.T) {
	const lineSize, sets = 64, 8192
	fill := func(core *cpu.Core) {
		for set := uint64(100); set < 140; set++ {
			core.Hierarchy().L3().Access(set * lineSize)
		}
	}
	dir := t.TempDir()
	aPath := filepath.Join(dir, "a.gob")
	bPath := filepath.Join(dir, "b.gob")
	writeSnap(t, aPath, fill, nil)
	writeSnap(t, bPath, func(core *cpu.Core) {
		fill(core)
		core.Hierarchy().L3().Access((5*sets + 3) * lineSize) // set 3, tag 5
	}, nil)
	a, err := load(aPath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := load(bPath)
	if err != nil {
		t.Fatal(err)
	}
	diffs := snapshot.Diff(a, b)
	var named []string
	for _, d := range diffs {
		if strings.Contains(d, "L3.Lines") {
			named = append(named, d)
		}
	}
	if len(named) != 1 || !strings.Contains(named[0], "L3.Lines[set 3 way 0]: only in second") {
		t.Fatalf("L3 line diffs = %q, want exactly one naming set 3 way 0 (all diffs: %q)", named, diffs)
	}
}
