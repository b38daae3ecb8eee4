package cache

import (
	"math/bits"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// denseCache is the reference model for the chunked set storage: the
// original dense [][]line cache, every set allocated up front. It exists
// only here, so the differential tests can hold the lazy Cache to the
// exact behaviour of the layout it replaced.
type denseCache struct {
	cfg                    Config
	sets                   [][]line
	lruClock, hits, misses uint64
	lineShift, setShift    uint
}

func newDense(cfg Config) *denseCache {
	d := &denseCache{cfg: cfg, sets: make([][]line, cfg.Sets)}
	for i := range d.sets {
		d.sets[i] = make([]line, cfg.Ways)
	}
	d.lineShift = uint(bits.TrailingZeros(uint(cfg.LineSize)))
	d.setShift = uint(bits.TrailingZeros(uint(cfg.Sets)))
	return d
}

func (d *denseCache) index(pa uint64) (set, tag uint64) {
	la := pa >> d.lineShift
	return la & uint64(d.cfg.Sets-1), la >> d.setShift
}

func (d *denseCache) lookup(pa uint64) bool {
	set, tag := d.index(pa)
	for _, l := range d.sets[set] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (d *denseCache) access(pa uint64) (hit bool, evicted uint64, evictedOK bool) {
	set, tag := d.index(pa)
	d.lruClock++
	lines := d.sets[set]
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			lines[i].lru = d.lruClock
			d.hits++
			return true, 0, false
		}
	}
	d.misses++
	victim := 0
	for i := range lines {
		if !lines[i].valid {
			victim = i
			lines[victim] = line{valid: true, tag: tag, lru: d.lruClock}
			return false, 0, false
		}
		if lines[i].lru < lines[victim].lru {
			victim = i
		}
	}
	evicted = (lines[victim].tag<<d.setShift | set) << d.lineShift
	lines[victim] = line{valid: true, tag: tag, lru: d.lruClock}
	return false, evicted, true
}

func (d *denseCache) flush(pa uint64) bool {
	set, tag := d.index(pa)
	for i := range d.sets[set] {
		if d.sets[set][i].valid && d.sets[set][i].tag == tag {
			d.sets[set][i].valid = false
			return true
		}
	}
	return false
}

func (d *denseCache) flushAll() {
	for s := range d.sets {
		for w := range d.sets[s] {
			d.sets[s][w].valid = false
		}
	}
}

// denseSnap is a deep copy of a denseCache's state.
type denseSnap struct {
	lines                  [][]line
	lruClock, hits, misses uint64
}

func (d *denseCache) snapshot() denseSnap {
	s := denseSnap{lruClock: d.lruClock, hits: d.hits, misses: d.misses}
	for _, set := range d.sets {
		s.lines = append(s.lines, append([]line(nil), set...))
	}
	return s
}

func (d *denseCache) restore(s denseSnap) {
	for i := range d.sets {
		copy(d.sets[i], s.lines[i])
	}
	d.lruClock, d.hits, d.misses = s.lruClock, s.hits, s.misses
}

// sparseLines is what CacheSnap.Lines must hold for the dense state:
// every non-zero line, tagged with set*Ways+way, in index order.
func (d *denseCache) sparseLines() []LineSnap {
	var out []LineSnap
	for s, set := range d.sets {
		for w, l := range set {
			if l != (line{}) {
				out = append(out, LineSnap{Index: s*d.cfg.Ways + w, Valid: l.valid, Tag: l.tag, LRU: l.lru})
			}
		}
	}
	return out
}

// diffHierarchyConfig is small enough to check every set after every
// step, yet its L3 spans several chunks and its L1s fit in a partial one.
func diffHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1D:        Config{Name: "L1D", Sets: 16, Ways: 2, LineSize: 64, Latency: 4},
		L1I:        Config{Name: "L1I", Sets: 16, Ways: 2, LineSize: 64, Latency: 4},
		L2:         Config{Name: "L2", Sets: 64, Ways: 4, LineSize: 64, Latency: 12},
		L3:         Config{Name: "L3", Sets: 256, Ways: 4, LineSize: 64, Latency: 40},
		MemLatency: 220,
	}
}

// diffOps is the number of operation kinds runCacheVsDense decodes.
const diffOps = 8

// runCacheVsDense decodes ops three bytes per step — operation and
// level, then a 16-bit operand — and applies each step to a lazy
// Hierarchy and to dense reference caches of the same geometry, failing
// on the first observable divergence.
func runCacheVsDense(t *testing.T, ops []byte) {
	t.Helper()
	h := NewHierarchy(diffHierarchyConfig())
	lazy := []*Cache{h.l1d, h.l1i, h.l2, h.l3}
	dense := make([]*denseCache, len(lazy))
	for i, c := range lazy {
		dense[i] = newDense(c.cfg)
	}
	lazySnaps := make([]CacheSnap, len(lazy))
	denseSnaps := make([]denseSnap, len(lazy))
	for i := range lazy {
		lazySnaps[i], denseSnaps[i] = lazy[i].Snapshot(), dense[i].snapshot()
	}
	denseLevelOf := func(pa uint64) Level {
		switch {
		case dense[0].lookup(pa):
			return LevelL1
		case dense[2].lookup(pa):
			return LevelL2
		case dense[3].lookup(pa):
			return LevelL3
		}
		return LevelMem
	}

	for step := 0; len(ops) >= 3; step++ {
		op, lv, n := ops[0]%diffOps, int(ops[0]/diffOps)%len(lazy), int(ops[1])|int(ops[2])<<8
		ops = ops[3:]
		// 4096 lines over 256 L3 sets: every set sees conflicts.
		pa := uint64(n&0xfff)<<6 | uint64(n>>12)<<2
		c, d := lazy[lv], dense[lv]
		switch op {
		case 0, 1: // the most common operation: a fill-or-hit
			hit, ev, ok := c.Access(pa)
			dhit, dev, dok := d.access(pa)
			if hit != dhit || ev != dev || ok != dok {
				t.Fatalf("step %d %s Access(%#x) = %t,%#x,%t; dense %t,%#x,%t",
					step, c.cfg.Name, pa, hit, ev, ok, dhit, dev, dok)
			}
		case 2:
			h.Access(pa)
			for _, dc := range []*denseCache{dense[0], dense[2], dense[3]} {
				if hit, _, _ := dc.access(pa); hit {
					break
				}
			}
		case 3:
			if got, want := c.Lookup(pa), d.lookup(pa); got != want {
				t.Fatalf("step %d %s Lookup(%#x) = %t, dense %t", step, c.cfg.Name, pa, got, want)
			}
		case 4:
			if got, want := c.Flush(pa), d.flush(pa); got != want {
				t.Fatalf("step %d %s Flush(%#x) = %t, dense %t", step, c.cfg.Name, pa, got, want)
			}
		case 5:
			if n%8 == 0 { // rare: a full flush empties every level
				h.FlushAll()
				for _, d := range dense {
					d.flushAll()
				}
			}
		case 6:
			lazySnaps[lv], denseSnaps[lv] = c.Snapshot(), d.snapshot()
			if got, want := lazySnaps[lv].Lines, d.sparseLines(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d %s snapshot lines %v, dense %v", step, c.cfg.Name, got, want)
			}
		case 7: // restore into a cache dirtied since the snapshot
			if err := c.Restore(lazySnaps[lv]); err != nil {
				t.Fatalf("step %d %s Restore: %v", step, c.cfg.Name, err)
			}
			d.restore(denseSnaps[lv])
		}

		if got, want := h.LevelOf(pa), denseLevelOf(pa); got != want {
			t.Fatalf("step %d LevelOf(%#x) = %v, dense %v", step, pa, got, want)
		}
		for i, c := range lazy {
			d := dense[i]
			hits, misses := c.Stats()
			if clock := c.Snapshot().LRUClock; hits != d.hits || misses != d.misses || clock != d.lruClock {
				t.Fatalf("step %d %s stats %d/%d clock %d, dense %d/%d clock %d",
					step, c.cfg.Name, hits, misses, clock, d.hits, d.misses, d.lruClock)
			}
		}
	}
}

// step encodes one runCacheVsDense operation on cache level lv (0..3 =
// L1D, L1I, L2, L3).
func step(op, lv byte, n int) []byte { return []byte{op + diffOps*lv, byte(n), byte(n >> 8)} }

func TestCacheVsDense(t *testing.T) {
	random := func(seed int64, steps int) []byte {
		r := rand.New(rand.NewSource(seed))
		b := make([]byte, 3*steps)
		r.Read(b)
		return b
	}
	// Overfill L3 set 0, snapshot, flush everything, fill sets in three
	// other chunks, then restore: the restore must clear those chunks.
	var handmade []byte
	for tag := 0; tag < 6; tag++ {
		handmade = append(handmade, step(0, 3, tag<<8)...)
	}
	handmade = append(handmade, step(6, 3, 0)...)
	handmade = append(handmade, step(5, 0, 0)...)
	for chunk := 1; chunk < 4; chunk++ {
		handmade = append(handmade, step(0, 3, chunk*chunkSets+1)...)
	}
	handmade = append(handmade, step(7, 3, 0)...)
	handmade = append(handmade, step(8, 3, 0x300)...)

	cases := []struct {
		name string
		ops  []byte
	}{
		{"empty", nil},
		{"restore-clears-new-chunks", handmade},
		{"seed1", random(1, 1500)},
		{"seed2", random(2, 1500)},
		{"seed3", random(3, 1500)},
		{"seed4-long", random(4, 4000)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runCacheVsDense(t, tc.ops) })
	}
}

func FuzzCacheVsDense(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		b := make([]byte, 300)
		r.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*500 {
			ops = ops[:3*500]
		}
		runCacheVsDense(t, ops)
	})
}

func TestCacheRestoreRejectsMalformed(t *testing.T) {
	cfg := Config{Name: "t", Sets: 128, Ways: 2, LineSize: 64, Latency: 4}
	n := cfg.Sets * cfg.Ways
	good := func() CacheSnap {
		return CacheSnap{Sets: cfg.Sets, Ways: cfg.Ways, Lines: []LineSnap{
			{Index: 1, Valid: true, Tag: 7, LRU: 1},
			{Index: 200, Valid: true, Tag: 9, LRU: 2},
		}}
	}
	cases := []struct {
		name   string
		mutate func(*CacheSnap)
		want   string
	}{
		{"index-negative", func(s *CacheSnap) { s.Lines[0].Index = -1 }, "index"},
		{"index-past-end", func(s *CacheSnap) { s.Lines[1].Index = n }, "index"},
		{"index-huge", func(s *CacheSnap) { s.Lines[1].Index = 1 << 40 }, "index"},
		{"duplicate", func(s *CacheSnap) { s.Lines[1].Index = s.Lines[0].Index }, "index"},
		{"unsorted", func(s *CacheSnap) { s.Lines[0].Index, s.Lines[1].Index = 200, 1 }, "index"},
		{"sets", func(s *CacheSnap) { s.Sets = 64 }, "geometry"},
		{"ways", func(s *CacheSnap) { s.Ways = 4 }, "geometry"},
		{"zero-ways", func(s *CacheSnap) { s.Ways = 0 }, "geometry"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(cfg)
			c.Access(0x1000)
			before := c.Snapshot()
			s := good()
			tc.mutate(&s)
			err := c.Restore(s)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore = %v, want an error mentioning %q", err, tc.want)
			}
			if after := c.Snapshot(); !reflect.DeepEqual(after, before) {
				t.Errorf("rejected Restore changed the cache: %+v -> %+v", before, after)
			}
		})
	}
	c := New(cfg)
	if err := c.Restore(good()); err != nil {
		t.Fatalf("well-formed snapshot rejected: %v", err)
	}
	if got := c.Snapshot(); !reflect.DeepEqual(got, good()) {
		t.Errorf("round trip = %+v, want %+v", got, good())
	}
}
