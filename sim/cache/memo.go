package cache

import "microscope/sim/mem"

// Memo support: the hooks, rank-normalized hashing and set imaging the
// sim/cpu replay-splice cache uses to memoize a transient replay window.
//
// The recorder cannot fingerprint raw cache state: the LRU fields are
// monotonic clock values that never repeat across windows, so two
// behaviourally identical windows would never hash equal. What actually
// determines hit/miss/eviction behaviour is, per set, the (valid, tag)
// content by way index plus the *relative recency order* of the valid
// ways — so the hash folds LRU ranks, not clock values, and the captured
// post-window images store LRU values as offsets from the window-start
// clock (ways untouched inside the window keep their live clocks at
// splice time, preserving their ranks without replaying stale absolutes).

// fold mixes v into the running FNV-1a hash h.
func fold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// SetMemoHooks installs the recording hooks (nil detaches). touch fires
// with the set index on every operation that reads or fills a set;
// invalidate fires on any flush, which the recorder treats as fatal to
// the window being recorded (flushes come from module code that the memo
// never runs inside a window, so this is defensive).
func (c *Cache) SetMemoHooks(touch func(set int), invalidate func()) {
	c.onTouch = touch
	c.onInval = invalidate
}

// MemoHashSet folds the behaviour-determining state of one set into h:
// per way, its valid bit and — when valid — its tag and LRU rank among
// the set's valid ways. Invalid ways contribute position only (victim
// selection prefers the first invalid way by index, never by recency).
// A never-filled set hashes as Ways invalid ways without being allocated.
func (c *Cache) MemoHashSet(set int, h uint64) uint64 {
	lines := c.set(uint64(set))
	for i := 0; i < c.cfg.Ways; i++ {
		if lines == nil || !lines[i].valid {
			h = fold(h, 0)
			continue
		}
		rank := uint64(1)
		for j := range lines {
			if j == i || !lines[j].valid {
				continue
			}
			if lines[j].lru < lines[i].lru || (lines[j].lru == lines[i].lru && j < i) {
				rank++
			}
		}
		h = fold(h, rank<<1|1)
		h = fold(h, lines[i].tag)
	}
	return h
}

// LineImage is the post-window image of one cache way. LruOff is the
// way's LRU clock relative to the window-start clock when the window
// touched it, or -1 for a way the window left alone (its live clock —
// and therefore its rank — is already correct at splice time).
type LineImage struct {
	Valid  bool
	Tag    uint64
	LruOff int64
}

// MemoCaptureSet images one set at the end of a recorded window. A
// never-filled set images as all-zero ways without being allocated.
func (c *Cache) MemoCaptureSet(set int, startClock uint64) []LineImage {
	lines := c.set(uint64(set))
	img := make([]LineImage, c.cfg.Ways)
	for i := range img {
		img[i].LruOff = -1
		if lines == nil {
			continue
		}
		img[i].Valid, img[i].Tag = lines[i].valid, lines[i].tag
		if lines[i].lru > startClock {
			img[i].LruOff = int64(lines[i].lru - startClock)
		}
	}
	return img
}

// MemoApplySet splices a captured set image back in, rebasing in-window
// LRU assignments onto baseClock (the set's clock when the splice began).
func (c *Cache) MemoApplySet(set int, img []LineImage, baseClock uint64) {
	lines := c.fillSet(uint64(set))
	for i := range img {
		lines[i].valid = img[i].Valid
		lines[i].tag = img[i].Tag
		if img[i].LruOff >= 0 {
			lines[i].lru = baseClock + uint64(img[i].LruOff)
		}
	}
}

// MemoClock returns the current LRU clock.
func (c *Cache) MemoClock() uint64 { return c.lruClock }

// MemoAdvance replays a window's aggregate effect on the clock and the
// hit/miss statistics.
func (c *Cache) MemoAdvance(clockDelta, hitsDelta, missDelta uint64) {
	c.lruClock += clockDelta
	c.hits += hitsDelta
	c.misses += missDelta
}

// --- PWC -------------------------------------------------------------

// SetMemoHooks installs the PWC recording hooks (nil detaches). The PWC
// is fully associative, so a touch covers the whole structure.
func (p *PWC) SetMemoHooks(touch func(), invalidate func()) {
	p.onTouch = touch
	p.onInval = invalidate
}

// MemoHash folds the PWC's behaviour-determining state into h: the entry
// count plus every entry's (address, level) in LRU-rank order. Physical
// slot order is excluded on purpose — lookups scan all entries and
// eviction picks the global LRU minimum, so slot arrangement never
// influences behaviour, while splices may reproduce it differently.
func (p *PWC) MemoHash(h uint64) uint64 {
	h = fold(h, uint64(p.n))
	prev := uint64(0)
	for k := 0; k < p.n; k++ {
		// Selection pass: k-th smallest LRU. Clocks are unique (every
		// touch assigns a fresh increment), so the order is total.
		best := -1
		for i := 0; i < p.n; i++ {
			if p.entries[i].lru > prev && (best < 0 || p.entries[i].lru < p.entries[best].lru) {
				best = i
			}
		}
		if best < 0 {
			break // duplicate clocks: only possible in a corrupt image
		}
		prev = p.entries[best].lru
		h = fold(h, p.entries[best].ea)
		h = fold(h, uint64(p.entries[best].level))
	}
	return h
}

// PWCImage is the post-window image of one PWC entry (same LruOff
// convention as LineImage; untouched entries keep their live clock,
// matched by entry address).
type PWCImage struct {
	EA     uint64
	Level  mem.Level
	LruOff int64
}

// MemoCapture images the whole PWC at the end of a recorded window.
func (p *PWC) MemoCapture(startClock uint64) []PWCImage {
	img := make([]PWCImage, p.n)
	for i := 0; i < p.n; i++ {
		img[i] = PWCImage{EA: p.entries[i].ea, Level: p.entries[i].level, LruOff: -1}
		if p.entries[i].lru > startClock {
			img[i].LruOff = int64(p.entries[i].lru - startClock)
		}
	}
	return img
}

// MemoApply splices a captured PWC image back in.
func (p *PWC) MemoApply(img []PWCImage, baseClock uint64) {
	if p.applyScratch == nil {
		p.applyScratch = make([]pwcEntry, p.capacity)
	}
	old := p.applyScratch[:p.n]
	copy(old, p.entries[:p.n])
	p.n = len(img)
	for i := range img {
		lru := baseClock
		if img[i].LruOff >= 0 {
			lru += uint64(img[i].LruOff)
		} else {
			for j := range old {
				if old[j].ea == img[i].EA {
					lru = old[j].lru
					break
				}
			}
		}
		p.entries[i] = pwcEntry{ea: img[i].EA, level: img[i].Level, lru: lru}
	}
}

// MemoClock returns the current PWC clock.
func (p *PWC) MemoClock() uint64 { return p.clock }

// MemoAdvance replays a window's aggregate clock and statistics effect.
func (p *PWC) MemoAdvance(clockDelta, hitsDelta, missDelta uint64) {
	p.clock += clockDelta
	p.hits += hitsDelta
	p.misses += missDelta
}
