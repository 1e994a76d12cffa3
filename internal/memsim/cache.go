// Package memsim implements the cache hierarchy model used by the
// performance-simulator substrate (the Gem5 substitute): set-associative
// L1 instruction and data caches backed by a unified L2, with LRU
// replacement and an optional next-line prefetcher (present on the paper's
// "Large" core configuration).
//
// The model is a functional hit/miss simulator with fixed per-level
// latencies; it produces the cache hit-rate metrics the cloning use case
// targets (IC hit rate, DC hit rate, L2 hit rate) and the access latencies
// the out-of-order timing model consumes. A store is timed exactly as a
// load of the same address: no dirty state and no writeback traffic is
// modelled.
package memsim

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	// Name identifies the cache in statistics ("L1I", "L1D", "L2").
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the cache line size.
	LineBytes int
	// Assoc is the set associativity.
	Assoc int
	// HitLatency is the access latency in cycles on a hit.
	HitLatency int
	// NextLinePrefetch enables a simple next-line prefetcher that, on every
	// demand miss, also installs the following line.
	NextLinePrefetch bool
}

// Validate checks the configuration for consistency.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("memsim: cache %q has non-positive geometry", c.Name)
	}
	if c.SizeBytes%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("memsim: cache %q size %d not divisible by line*assoc", c.Name, c.SizeBytes)
	}
	if c.HitLatency <= 0 {
		return fmt.Errorf("memsim: cache %q has non-positive hit latency", c.Name)
	}
	if (c.LineBytes & (c.LineBytes - 1)) != 0 {
		return fmt.Errorf("memsim: cache %q line size %d not a power of two", c.Name, c.LineBytes)
	}
	return nil
}

// NumSets returns the number of sets implied by the geometry.
func (c CacheConfig) NumSets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

// Stats holds per-cache access statistics.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Prefetches uint64
}

// HitRate returns Hits/Accesses, or 1 when the cache was never accessed
// (an untouched cache should not register as "all misses" in clone metrics).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 1
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// line is one cache line.
type line struct {
	tag   uint64
	valid bool
	used  uint64 // LRU timestamp
}

// Cache is a single set-associative cache level.
type Cache struct {
	cfg   CacheConfig
	sets  [][]line
	clock uint64
	stats Stats
	// setMask/lineShift are the power-of-two shortcuts for set indexing
	// (both line size and set count are powers of two for every built-in
	// configuration); setsPow2 falls back to division when the set count is
	// not a power of two.
	setsPow2  bool
	setMask   uint64
	setShift  uint
	lineShift uint
	// mru holds, per set, the way of the most recent hit or fill. It is a
	// pure lookup hint — the fast path re-checks valid+tag — so it never
	// changes hit/miss outcomes or LRU state, only skips the way scan.
	mru []int32
}

// NewCache builds a cache from its configuration.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg}
	numSets := cfg.NumSets()
	c.mru = make([]int32, numSets)
	c.sets = make([][]line, numSets)
	backing := make([]line, numSets*cfg.Assoc)
	for i := range c.sets {
		c.sets[i] = backing[i*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	for v := cfg.LineBytes; v > 1; v >>= 1 {
		c.lineShift++
	}
	if numSets&(numSets-1) == 0 {
		c.setsPow2 = true
		c.setMask = uint64(numSets - 1)
		for v := numSets; v > 1; v >>= 1 {
			c.setShift++
		}
	}
	return c, nil
}

// Stats returns a copy of the cache statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears the cache contents and statistics.
func (c *Cache) Reset() {
	for s := range c.sets {
		for w := range c.sets[s] {
			c.sets[s][w] = line{}
		}
		c.mru[s] = 0
	}
	c.clock = 0
	c.stats = Stats{}
}

// lineAddr returns the line-aligned address.
func (c *Cache) lineAddr(addr uint64) uint64 {
	return addr &^ uint64(c.cfg.LineBytes-1)
}

// indexTag splits an address into set index and tag. Line size is always a
// power of two (validated) and every built-in configuration's set count is
// too, so the hot path is two shifts and a mask; the division fallback keeps
// non-power-of-two set counts bit-identical.
func (c *Cache) indexTag(addr uint64) (int, uint64) {
	lineNum := addr >> c.lineShift
	if c.setsPow2 {
		return int(lineNum & c.setMask), lineNum >> c.setShift
	}
	set := int(lineNum % uint64(len(c.sets)))
	tag := lineNum / uint64(len(c.sets))
	return set, tag
}

// Access performs a demand access, load or store alike. It returns true on
// hit. On miss the line is installed over the LRU victim; evicting a line
// costs nothing, since no dirty state is kept.
func (c *Cache) Access(addr uint64) bool {
	hit, _ := c.accessWay(addr)
	return hit
}

// accessWay is Access plus the way now holding the line (valid on hit and
// after a miss install alike), enabling the hierarchy's same-line fetch fast
// path.
func (c *Cache) accessWay(addr uint64) (bool, *line) {
	c.stats.Accesses++
	hit, way := c.touch(addr)
	if hit {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	return hit, way
}

// Prefetch installs the line containing addr without counting a demand
// access. It returns true if the line was already present.
func (c *Cache) Prefetch(addr uint64) bool {
	present, _ := c.touch(addr)
	if !present {
		c.stats.Prefetches++
	}
	return present
}

// touch looks up the line, updates LRU state and installs it on miss. It
// returns whether the line was present and the way now holding it.
func (c *Cache) touch(addr uint64) (bool, *line) {
	c.clock++
	set, tag := c.indexTag(addr)
	ways := c.sets[set]
	// MRU fast path: the way of the last hit/fill in this set is the
	// likeliest match; on a hit it performs exactly the scan's updates.
	if m := c.mru[set]; int(m) < len(ways) {
		if l := &ways[m]; l.valid && l.tag == tag {
			l.used = c.clock
			return true, l
		}
	}
	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			ways[w].used = c.clock
			c.mru[set] = int32(w)
			return true, &ways[w]
		}
	}
	// Miss: choose victim (invalid first, else LRU).
	victim := 0
	for w := range ways {
		if !ways[w].valid {
			victim = w
			break
		}
		if ways[w].used < ways[victim].used {
			victim = w
		}
	}
	ways[victim] = line{tag: tag, valid: true, used: c.clock}
	c.mru[set] = int32(victim)
	return false, &ways[victim]
}

// HierarchyConfig describes a two-level hierarchy with split L1 caches and a
// unified L2.
type HierarchyConfig struct {
	L1I CacheConfig
	L1D CacheConfig
	L2  CacheConfig
	// MemLatency is the additional latency of a main-memory access in cycles.
	MemLatency int
}

// Validate checks the hierarchy configuration.
func (h HierarchyConfig) Validate() error {
	for _, c := range []CacheConfig{h.L1I, h.L1D, h.L2} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	if h.MemLatency <= 0 {
		return fmt.Errorf("memsim: non-positive memory latency %d", h.MemLatency)
	}
	return nil
}

// Hierarchy is the instantiated cache hierarchy.
type Hierarchy struct {
	cfg HierarchyConfig
	l1i *Cache
	l1d *Cache
	l2  *Cache
	// fetchLineNum/fetchWay remember the L1I line of the previous fetch.
	// Nothing but instruction fetches touches the L1I, so a fetch to the
	// same line as its predecessor is guaranteed still resident and takes
	// the FastFetchHit path — the common case for sequential code.
	fetchLineNum uint64
	fetchWay     *line
	// dataLineNum/dataWay are the analogous shortcut for the L1D: recorded
	// on demand hits and invalidated on any miss (a miss may trigger a
	// prefetch install that evicts an arbitrary line).
	dataLineNum uint64
	dataWay     *line
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l1i, err := NewCache(cfg.L1I)
	if err != nil {
		return nil, err
	}
	l1d, err := NewCache(cfg.L1D)
	if err != nil {
		return nil, err
	}
	l2, err := NewCache(cfg.L2)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{cfg: cfg, l1i: l1i, l1d: l1d, l2: l2}, nil
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// L1I, L1D and L2 expose the individual levels for statistics reporting.
func (h *Hierarchy) L1I() *Cache { return h.l1i }

// L1D returns the L1 data cache.
func (h *Hierarchy) L1D() *Cache { return h.l1d }

// L2 returns the unified second-level cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// Reset clears all levels.
func (h *Hierarchy) Reset() {
	h.l1i.Reset()
	h.l1d.Reset()
	h.l2.Reset()
	h.fetchLineNum = 0
	h.fetchWay = nil
	h.dataLineNum = 0
	h.dataWay = nil
}

// AccessDataEv performs a data access (a load or a store, timed alike) and
// returns its latency in cycles and the L2 events it caused — demand
// accesses, misses (main-memory fetches) and prefetch fills — so the timing
// model can attribute energy events to activity windows without
// snapshotting cache counters around every access.
func (h *Hierarchy) AccessDataEv(addr uint64) (lat int, l2acc, l2miss, l2pref uint8) {
	if h.dataWay != nil && addr>>h.l1d.lineShift == h.dataLineNum {
		c := h.l1d
		c.stats.Accesses++
		c.stats.Hits++
		c.clock++
		h.dataWay.used = c.clock
		return h.cfg.L1D.HitLatency, 0, 0, 0
	}
	return h.accessDataNewLine(addr)
}

// accessDataNewLine is the data path past the same-line shortcut: a full L1D
// access, falling through to L2, memory and the prefetcher on a miss.
func (h *Hierarchy) accessDataNewLine(addr uint64) (lat int, l2acc, l2miss, l2pref uint8) {
	hit, way := h.l1d.accessWay(addr)
	if hit {
		h.dataLineNum = addr >> h.l1d.lineShift
		h.dataWay = way
		return h.cfg.L1D.HitLatency, 0, 0, 0
	}
	h.dataWay = nil
	lat = h.cfg.L1D.HitLatency
	l2acc = 1
	if h.l2.Access(addr) {
		lat += h.cfg.L2.HitLatency
	} else {
		lat += h.cfg.L2.HitLatency + h.cfg.MemLatency
		l2miss = 1
	}
	if h.cfg.L2.NextLinePrefetch {
		next := h.l2.lineAddr(addr) + uint64(h.cfg.L2.LineBytes)
		if !h.l2.Prefetch(next) {
			l2pref = 1
		}
		if h.cfg.L1D.NextLinePrefetch {
			h.l1d.Prefetch(next)
		}
	}
	return lat, l2acc, l2miss, l2pref
}

// FastFetchHit attempts the same-line fetch fast path without any function
// calls, so it inlines into the timing model's per-instruction step. It
// reports false when the fetch targets a new line and needs AccessInstrEv;
// on true it has performed exactly an L1I read hit (hit latency, no L2
// events).
func (h *Hierarchy) FastFetchHit(pc uint64) bool {
	if h.fetchWay == nil || pc>>h.l1i.lineShift != h.fetchLineNum {
		return false
	}
	c := h.l1i
	c.stats.Accesses++
	c.stats.Hits++
	c.clock++
	h.fetchWay.used = c.clock
	return true
}

// AccessInstrEv performs an instruction fetch and returns its latency in
// cycles and the L2 events it caused (see AccessDataEv): a full L1I access,
// falling through to L2 and memory on a miss. The timing model calls it
// once FastFetchHit has reported a new line.
func (h *Hierarchy) AccessInstrEv(pc uint64) (lat int, l2acc, l2miss uint8) {
	hit, way := h.l1i.accessWay(pc)
	h.fetchLineNum = pc >> h.l1i.lineShift
	h.fetchWay = way
	if hit {
		return h.cfg.L1I.HitLatency, 0, 0
	}
	lat = h.cfg.L1I.HitLatency
	if h.l2.Access(pc) {
		lat += h.cfg.L2.HitLatency
	} else {
		lat += h.cfg.L2.HitLatency + h.cfg.MemLatency
		l2miss = 1
	}
	return lat, 1, l2miss
}
