package cache

import (
	"fmt"

	"microscope/sim/mem"
)

// Snapshot types for the checkpoint/restore subsystem (sim/snapshot).
// Geometry (set/way counts, capacities) is carried in every Snap and
// validated on Restore: a snapshot can only be restored into structures
// built from the same configuration, so a config drift surfaces as a
// descriptive error rather than silent state corruption.

// LineSnap is one serializable cache line. Index is its position in
// the set-major line array: Index = set*Ways + way.
type LineSnap struct {
	Index int
	Valid bool
	Tag   uint64
	LRU   uint64
}

// CacheSnap is the serializable state of one cache level. Lines is
// sparse: it lists only the lines that differ from the zero line (never
// filled), in strictly increasing Index order, so a snapshot costs the
// lines a run touched rather than the cache's capacity. Invalid lines
// that still carry a tag or LRU clock are listed too.
type CacheSnap struct {
	Sets, Ways int
	Lines      []LineSnap
	LRUClock   uint64
	Hits       uint64
	Misses     uint64
}

// Snapshot captures the cache's non-zero lines and statistics.
func (c *Cache) Snapshot() CacheSnap {
	s := CacheSnap{
		Sets:     c.cfg.Sets,
		Ways:     c.cfg.Ways,
		LRUClock: c.lruClock,
		Hits:     c.hits,
		Misses:   c.misses,
	}
	n := 0
	for _, ch := range c.chunks {
		for _, l := range ch {
			if l != (line{}) {
				n++
			}
		}
	}
	if n == 0 {
		return s
	}
	s.Lines = make([]LineSnap, 0, n)
	per := c.chunkLines()
	for ci, ch := range c.chunks {
		for i, l := range ch {
			if l != (line{}) {
				s.Lines = append(s.Lines, LineSnap{Index: ci*per + i, Valid: l.valid, Tag: l.tag, LRU: l.lru})
			}
		}
	}
	return s
}

// Restore overwrites the cache's state with a snapshot taken from a cache
// of the same geometry: every filled chunk is zeroed, then the listed
// lines are written back. A malformed snapshot — wrong geometry, or a
// line Index out of range, repeated or out of order — is rejected before
// any state changes.
func (c *Cache) Restore(s CacheSnap) error {
	if s.Sets != c.cfg.Sets || s.Ways != c.cfg.Ways {
		return fmt.Errorf("cache %s: snapshot geometry %dx%d, have %dx%d",
			c.cfg.Name, s.Sets, s.Ways, c.cfg.Sets, c.cfg.Ways)
	}
	prev := -1
	for _, ls := range s.Lines {
		if ls.Index <= prev || ls.Index >= s.Sets*s.Ways {
			return fmt.Errorf("cache %s: snapshot line index %d after %d (want strictly increasing in [0,%d))",
				c.cfg.Name, ls.Index, prev, s.Sets*s.Ways)
		}
		prev = ls.Index
	}
	for _, ch := range c.chunks {
		clear(ch)
	}
	per := c.chunkLines()
	for _, ls := range s.Lines {
		c.chunk(ls.Index / per)[ls.Index%per] = line{valid: ls.Valid, tag: ls.Tag, lru: ls.LRU}
	}
	c.lruClock = s.LRUClock
	c.hits = s.Hits
	c.misses = s.Misses
	return nil
}

// HierarchySnap is the serializable state of the full cache hierarchy.
type HierarchySnap struct {
	L1D, L1I, L2, L3 CacheSnap
}

// Snapshot captures all four levels.
func (h *Hierarchy) Snapshot() HierarchySnap {
	return HierarchySnap{
		L1D: h.l1d.Snapshot(),
		L1I: h.l1i.Snapshot(),
		L2:  h.l2.Snapshot(),
		L3:  h.l3.Snapshot(),
	}
}

// Restore overwrites all four levels from a snapshot.
func (h *Hierarchy) Restore(s HierarchySnap) error {
	if err := h.l1d.Restore(s.L1D); err != nil {
		return err
	}
	if err := h.l1i.Restore(s.L1I); err != nil {
		return err
	}
	if err := h.l2.Restore(s.L2); err != nil {
		return err
	}
	return h.l3.Restore(s.L3)
}

// PWCEntrySnap is one serializable page-walk-cache entry.
type PWCEntrySnap struct {
	EA    uint64
	Level mem.Level
	LRU   uint64
}

// PWCSnap is the serializable state of the page-walk cache.
type PWCSnap struct {
	Capacity int
	Entries  []PWCEntrySnap // the valid entries, in slot order
	Clock    uint64
	Hits     uint64
	Misses   uint64
}

// Snapshot captures the PWC's valid entries and statistics.
func (p *PWC) Snapshot() PWCSnap {
	s := PWCSnap{
		Capacity: p.capacity,
		Entries:  make([]PWCEntrySnap, p.n),
		Clock:    p.clock,
		Hits:     p.hits,
		Misses:   p.misses,
	}
	for i := 0; i < p.n; i++ {
		e := p.entries[i]
		s.Entries[i] = PWCEntrySnap{EA: e.ea, Level: e.level, LRU: e.lru}
	}
	return s
}

// Restore overwrites the PWC's state with a snapshot taken from a PWC of
// the same capacity.
func (p *PWC) Restore(s PWCSnap) error {
	if s.Capacity != p.capacity || len(s.Entries) > p.capacity {
		return fmt.Errorf("pwc: snapshot capacity %d (%d entries), have capacity %d",
			s.Capacity, len(s.Entries), p.capacity)
	}
	p.n = len(s.Entries)
	for i, e := range s.Entries {
		p.entries[i] = pwcEntry{ea: e.EA, level: e.Level, lru: e.LRU}
	}
	for i := p.n; i < p.capacity; i++ {
		p.entries[i] = pwcEntry{}
	}
	p.clock = s.Clock
	p.hits = s.Hits
	p.misses = s.Misses
	return nil
}
