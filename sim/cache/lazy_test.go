package cache_test

import (
	"runtime"
	"testing"

	"microscope/attack/platform"
	"microscope/sim/cache"
	"microscope/sim/cpu"
)

// TestHierarchyBootIsLazy pins the cost of an untouched hierarchy: set
// storage is allocated on first fill, so booting allocates only the chunk
// tables (not the 3 MB a dense 8192x16 L3 would need), and a freshly
// booted rig snapshots no cache lines at all.
func TestHierarchyBootIsLazy(t *testing.T) {
	const boots = 50
	const budget = 64 << 10
	keep := make([]*cache.Hierarchy, boots)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = cache.NewDefaultHierarchy()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / boots; per >= budget {
		t.Errorf("NewDefaultHierarchy allocates %d bytes per boot, want < %d", per, budget)
	}

	rig, err := platform.New(cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := rig.Core.Hierarchy().Snapshot()
	for i, level := range []cache.CacheSnap{s.L1D, s.L1I, s.L2, s.L3} {
		if len(level.Lines) != 0 {
			t.Errorf("fresh rig level %d snapshot holds %d lines, want 0", i+1, len(level.Lines))
		}
	}
}
