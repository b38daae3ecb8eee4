// Package cache implements the simulated cache hierarchy: set-associative
// L1 data/instruction caches, a unified L2, a shared inclusive-ish L3, and
// the page-walk cache (PWC) used by the hardware page walker.
//
// Every access returns the latency it would take on hardware and the level
// it was served from, which is the raw signal behind both MicroScope
// side channels: the prime+probe AES attack classifies probe latencies into
// L1 / L2-L3 / memory bands (paper Fig. 11), and the Replayer tunes
// page-walk duration by flushing page-table entries to chosen levels
// (paper §4.1.2).
package cache

import (
	"fmt"
	"math/bits"
)

// Level identifies where an access was served from.
type Level int

// Service levels, nearest first.
const (
	LevelL1 Level = iota + 1
	LevelL2
	LevelL3
	LevelMem
)

// String returns the level name.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelMem:
		return "Mem"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Config describes one cache.
type Config struct {
	Name     string
	Sets     int // number of sets; power of two
	Ways     int // associativity
	LineSize int // bytes; power of two
	Latency  int // cycles to serve a hit at this level
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache %s: sets %d not a positive power of two", c.Name, c.Sets)
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a positive power of two", c.Name, c.LineSize)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: ways %d not positive", c.Name, c.Ways)
	}
	if c.Latency <= 0 {
		return fmt.Errorf("cache %s: latency %d not positive", c.Name, c.Latency)
	}
	return nil
}

// SizeBytes returns the capacity of the cache.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * c.LineSize }

type line struct {
	valid bool
	tag   uint64
	lru   uint64 // larger = more recently used
}

// Sets are stored in fixed-size chunks of chunkSets sets, allocated on
// the first fill into one of their sets; a nil chunk reads as all-zero
// (invalid) lines. A run touches a few hundred of the L3's 8192 sets, so
// booting, flushing, snapshotting and restoring a cache cost only the
// chunks it has filled — the idiom mem.PhysMem uses for its memory.
const (
	chunkShift = 6 // 64 sets per chunk
	chunkSets  = 1 << chunkShift
)

// Cache is one set-associative, physically-tagged cache level with LRU
// replacement. It tracks presence only (the simulation keeps data in
// mem.PhysMem); that is sufficient for timing behaviour.
type Cache struct {
	cfg       Config
	chunks    [][]line // len == ceil(Sets/chunkSets); nil chunk == all lines zero
	lruClock  uint64
	hits      uint64
	misses    uint64
	lineShift uint   //simlint:snapexempt derived geometry: recomputed from cfg by New; snapshots restore into a same-config cache
	setMask   uint64 //simlint:snapexempt derived geometry: recomputed from cfg by New; snapshots restore into a same-config cache
}

// New builds a cache from cfg, panicking on invalid configuration (caches
// are constructed from compile-time parameter sets). No set storage is
// allocated until the first fill.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	shift := uint(0)
	for 1<<shift != cfg.LineSize {
		shift++
	}
	return &Cache{
		cfg:       cfg,
		chunks:    make([][]line, (cfg.Sets+chunkSets-1)>>chunkShift),
		lineShift: shift,
		setMask:   uint64(cfg.Sets - 1),
	}
}

// chunkLines is the number of lines in one allocated chunk.
func (c *Cache) chunkLines() int { return min(c.cfg.Sets, chunkSets) * c.cfg.Ways }

// chunk returns chunk i, allocating it on first use.
func (c *Cache) chunk(i int) []line {
	if c.chunks[i] == nil {
		c.chunks[i] = make([]line, c.chunkLines())
	}
	return c.chunks[i]
}

// set returns the ways of set s, or nil when its chunk was never filled
// (every way zero, hence invalid). It never allocates.
func (c *Cache) set(s uint64) []line {
	if ch := c.chunks[s>>chunkShift]; ch != nil {
		return c.ways(ch, s)
	}
	return nil
}

// fillSet returns the ways of set s, allocating its chunk on first fill.
func (c *Cache) fillSet(s uint64) []line {
	return c.ways(c.chunk(int(s>>chunkShift)), s)
}

// ways slices set s out of its chunk ch.
func (c *Cache) ways(ch []line, s uint64) []line {
	off := int(s&(chunkSets-1)) * c.cfg.Ways
	return ch[off : off+c.cfg.Ways : off+c.cfg.Ways]
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(pa uint64) (set uint64, tag uint64) {
	lineAddr := pa >> c.lineShift
	return lineAddr & c.setMask, lineAddr >> c.setBits()
}

// setBits is log2(Sets): the number of line-address bits the set index
// takes.
func (c *Cache) setBits() uint { return uint(bits.Len64(c.setMask)) }

// Lookup probes the cache without modifying replacement state.
func (c *Cache) Lookup(pa uint64) bool {
	set, tag := c.index(pa)
	for _, l := range c.set(set) {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Access touches pa, returning whether it hit. On miss the line is filled
// (evicting LRU) and the evicted line address is returned in evicted with
// ok=true.
func (c *Cache) Access(pa uint64) (hit bool, evicted uint64, evictedOK bool) {
	set, tag := c.index(pa)
	c.lruClock++
	lines := c.fillSet(set)
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			lines[i].lru = c.lruClock
			c.hits++
			return true, 0, false
		}
	}
	c.misses++
	victim := 0
	for i := range lines {
		if !lines[i].valid {
			victim = i
			evictedOK = false
			goto fill
		}
		if lines[i].lru < lines[victim].lru {
			victim = i
		}
	}
	evicted = c.lineAddr(set, lines[victim].tag)
	evictedOK = true
fill:
	lines[victim] = line{valid: true, tag: tag, lru: c.lruClock}
	return false, evicted, evictedOK
}

func (c *Cache) lineAddr(set, tag uint64) uint64 {
	return (tag<<c.setBits() | set) << c.lineShift
}

// Flush invalidates the line containing pa, reporting whether it was
// present (clflush semantics).
func (c *Cache) Flush(pa uint64) bool {
	set, tag := c.index(pa)
	lines := c.set(set)
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			lines[i].valid = false
			return true
		}
	}
	return false
}

// FlushAll invalidates every line. Only filled chunks can hold valid
// lines; invalidated lines keep their tag and LRU clock.
func (c *Cache) FlushAll() {
	for _, ch := range c.chunks {
		for i := range ch {
			ch[i].valid = false
		}
	}
}

// SetOf returns the set index pa maps to (for prime+probe set selection).
func (c *Cache) SetOf(pa uint64) int {
	set, _ := c.index(pa)
	return int(set)
}

// Stats returns cumulative hit/miss counts.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// ResetStats zeroes the counters.
func (c *Cache) ResetStats() { c.hits, c.misses = 0, 0 }
