package cache

import "microscope/sim/mem"

// PWC is the page-walk cache: a small fully-associative cache over
// page-table entries of the three *upper* levels (PGD, PUD, PMD). Leaf
// PTEs are never cached here, matching the MMU organisation in the paper's
// §2.1. A PWC hit lets the hardware walker skip the memory accesses for
// the cached levels.
//
// The entries live in a fixed-size value array scanned linearly: at the
// hardware-realistic capacities in use (32 entries) a scan beats a
// map[uint64]*pwcEntry on every operation and — unlike the map — allocates
// nothing after construction, which matters because the walker probes the
// PWC on every TLB miss.
type PWC struct {
	capacity int
	entries  []pwcEntry // valid entries in [0, n)
	n        int
	clock    uint64
	hits     uint64
	misses   uint64
}

type pwcEntry struct {
	ea    uint64 // entry physical address
	level mem.Level
	lru   uint64
}

// NewPWC returns a PWC holding up to capacity upper-level entries.
func NewPWC(capacity int) *PWC {
	p := &PWC{capacity: capacity}
	if capacity > 0 {
		p.entries = make([]pwcEntry, capacity)
	}
	return p
}

// find returns the index of the entry at ea, or -1.
func (p *PWC) find(ea uint64) int {
	for i := 0; i < p.n; i++ {
		if p.entries[i].ea == ea {
			return i
		}
	}
	return -1
}

// Lookup reports whether the page-table entry at physical address ea is
// cached, updating recency on hit.
func (p *PWC) Lookup(ea uint64) bool {
	p.clock++
	if i := p.find(ea); i >= 0 {
		p.entries[i].lru = p.clock
		p.hits++
		return true
	}
	p.misses++
	return false
}

// Insert caches the upper-level entry at ea. Leaf (PTE-level) insertions
// are ignored.
func (p *PWC) Insert(ea uint64, level mem.Level) {
	if level == mem.PTE || p.capacity <= 0 {
		return
	}
	p.clock++
	if i := p.find(ea); i >= 0 {
		p.entries[i].lru = p.clock
		return
	}
	slot := p.n
	if p.n >= p.capacity {
		// Evict the least recently used entry.
		slot = 0
		for i := 1; i < p.n; i++ {
			if p.entries[i].lru < p.entries[slot].lru {
				slot = i
			}
		}
	} else {
		p.n++
	}
	p.entries[slot] = pwcEntry{ea: ea, level: level, lru: p.clock}
}

// Flush removes the entry at ea (MicroScope setup flushes the PWC along
// with the cache hierarchy so the walk starts from scratch).
func (p *PWC) Flush(ea uint64) {
	if i := p.find(ea); i >= 0 {
		p.entries[i] = p.entries[p.n-1]
		p.n--
	}
}

// FlushAll empties the PWC.
func (p *PWC) FlushAll() {
	p.n = 0
}

// Len returns the number of cached entries.
func (p *PWC) Len() int { return p.n }

// Stats returns cumulative hit/miss counts.
func (p *PWC) Stats() (hits, misses uint64) { return p.hits, p.misses }
