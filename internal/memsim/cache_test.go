package memsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallCfg() CacheConfig {
	return CacheConfig{Name: "L1D", SizeBytes: 1024, LineBytes: 64, Assoc: 2, HitLatency: 2}
}

func hierCfg() HierarchyConfig {
	return HierarchyConfig{
		L1I:        CacheConfig{Name: "L1I", SizeBytes: 4096, LineBytes: 64, Assoc: 2, HitLatency: 1},
		L1D:        CacheConfig{Name: "L1D", SizeBytes: 4096, LineBytes: 64, Assoc: 4, HitLatency: 2},
		L2:         CacheConfig{Name: "L2", SizeBytes: 65536, LineBytes: 64, Assoc: 8, HitLatency: 12},
		MemLatency: 100,
	}
}

func TestCacheConfigValidate(t *testing.T) {
	good := smallCfg()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(c *CacheConfig){
		func(c *CacheConfig) { c.SizeBytes = 0 },
		func(c *CacheConfig) { c.LineBytes = 0 },
		func(c *CacheConfig) { c.Assoc = 0 },
		func(c *CacheConfig) { c.HitLatency = 0 },
		func(c *CacheConfig) { c.LineBytes = 48 },
		func(c *CacheConfig) { c.SizeBytes = 1000 },
	}
	for i, mutate := range cases {
		c := smallCfg()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if got := good.NumSets(); got != 1024/(64*2) {
		t.Errorf("NumSets = %d", got)
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c, err := NewCache(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0x1000, false) {
		t.Error("first access should miss")
	}
	if !c.Access(0x1000, false) {
		t.Error("second access to same address should hit")
	}
	if !c.Access(0x1038, false) {
		t.Error("access within the same line should hit")
	}
	if c.Access(0x1040, false) {
		t.Error("access to next line should miss")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate = %v", st.HitRate())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache with 8 sets of 64B lines. Three lines mapping to the same
	// set: the least recently used must be evicted.
	c, _ := NewCache(smallCfg())
	setStride := uint64(smallCfg().NumSets() * 64)
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU
	c.Access(d, false) // evicts b
	if !c.Access(a, false) {
		t.Error("a should still be cached")
	}
	if !c.Access(d, false) {
		t.Error("d should be cached")
	}
	if c.Access(b, false) {
		t.Error("b should have been evicted (LRU)")
	}
}

func TestCacheWritebackCounting(t *testing.T) {
	c, _ := NewCache(smallCfg())
	setStride := uint64(smallCfg().NumSets() * 64)
	c.Access(0, true)            // dirty
	c.Access(setStride, false)   // fills second way
	c.Access(2*setStride, false) // evicts dirty line 0
	if got := c.Stats().Writebacks; got != 1 {
		t.Errorf("writebacks = %d, want 1", got)
	}
}

func TestCacheResetAndEmptyStats(t *testing.T) {
	c, _ := NewCache(smallCfg())
	c.Access(0x40, true)
	c.Reset()
	st := c.Stats()
	if st.Accesses != 0 {
		t.Errorf("stats not reset: %+v", st)
	}
	if st.HitRate() != 1 {
		t.Errorf("empty cache hit rate should be 1, got %v", st.HitRate())
	}
	if st.MissRate() != 0 {
		t.Errorf("empty cache miss rate should be 0, got %v", st.MissRate())
	}
	if c.Access(0x40, false) {
		t.Error("Reset did not clear contents")
	}
}

func TestCachePrefetch(t *testing.T) {
	c, _ := NewCache(smallCfg())
	if c.Prefetch(0x80) {
		t.Error("prefetch of absent line should report not-present")
	}
	if !c.Access(0x80, false) {
		t.Error("demand access after prefetch should hit")
	}
	st := c.Stats()
	if st.Prefetches != 1 {
		t.Errorf("prefetches = %d, want 1", st.Prefetches)
	}
	if st.Accesses != 1 || st.Hits != 1 {
		t.Errorf("prefetch should not count as demand access: %+v", st)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h, err := NewHierarchy(hierCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg := hierCfg()
	// Cold access: L1 miss + L2 miss + memory.
	lat, _, _, _ := h.AccessDataEv(0x10000, false)
	want := cfg.L1D.HitLatency + cfg.L2.HitLatency + cfg.MemLatency
	if lat != want {
		t.Errorf("cold access latency = %d, want %d", lat, want)
	}
	// Second access: L1 hit.
	if lat, _, _, _ := h.AccessDataEv(0x10000, false); lat != cfg.L1D.HitLatency {
		t.Errorf("warm access latency = %d, want %d", lat, cfg.L1D.HitLatency)
	}
	// Instruction fetch path.
	if lat, _, _ := h.AccessInstrEv(0x400); lat != cfg.L1I.HitLatency+cfg.L2.HitLatency+cfg.MemLatency {
		t.Errorf("cold fetch latency = %d", lat)
	}
	if lat, _, _ := h.AccessInstrEv(0x400); lat != cfg.L1I.HitLatency {
		t.Errorf("warm fetch latency = %d", lat)
	}
}

func TestHierarchyL2HitPath(t *testing.T) {
	cfg := hierCfg()
	cfg.L1D.SizeBytes = 256 // tiny L1D (4 lines) to force L1 misses with L2 hits
	cfg.L1D.Assoc = 1
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Touch 64 lines (4 KiB), which fit in L2 but not in the 256-byte L1D.
	for pass := 0; pass < 2; pass++ {
		for i := uint64(0); i < 64; i++ {
			h.AccessDataEv(i*64, false)
		}
	}
	l1 := h.L1D().Stats()
	l2 := h.L2().Stats()
	if l1.HitRate() > 0.2 {
		t.Errorf("L1D hit rate %v unexpectedly high for streaming pattern", l1.HitRate())
	}
	if l2.HitRate() < 0.45 {
		t.Errorf("L2 hit rate %v too low; second pass should hit in L2", l2.HitRate())
	}
}

func TestHierarchyPrefetcher(t *testing.T) {
	base := hierCfg()
	base.L2.NextLinePrefetch = false
	noPf, _ := NewHierarchy(base)

	pf := hierCfg()
	pf.L2.NextLinePrefetch = true
	withPf, _ := NewHierarchy(pf)

	// Stream through 256 KiB (beyond L2) with 64B stride: the next-line
	// prefetcher should convert many L2 misses into hits.
	for i := uint64(0); i < 4096; i++ {
		noPf.AccessDataEv(i*64, false)
		withPf.AccessDataEv(i*64, false)
	}
	if withPf.L2().Stats().HitRate() <= noPf.L2().Stats().HitRate() {
		t.Errorf("prefetcher did not improve L2 hit rate: with=%v without=%v",
			withPf.L2().Stats().HitRate(), noPf.L2().Stats().HitRate())
	}
}

func TestHierarchyConfigValidate(t *testing.T) {
	bad := hierCfg()
	bad.MemLatency = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero memory latency should be rejected")
	}
	bad2 := hierCfg()
	bad2.L2.SizeBytes = 0
	if _, err := NewHierarchy(bad2); err == nil {
		t.Error("invalid L2 should be rejected")
	}
}

func TestSmallFootprintFitsInL1(t *testing.T) {
	h, _ := NewHierarchy(hierCfg())
	// 2 KiB working set inside a 4 KiB L1D: after the first pass everything hits.
	for pass := 0; pass < 10; pass++ {
		for i := uint64(0); i < 32; i++ {
			h.AccessDataEv(0x5000+i*64, false)
		}
	}
	if hr := h.L1D().Stats().HitRate(); hr < 0.85 {
		t.Errorf("L1D hit rate %v too low for resident working set", hr)
	}
}

// Property: hit + miss counts always equal accesses and hit rate stays in
// [0,1] for arbitrary access sequences.
func TestPropertyStatsConsistency(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		c, err := NewCache(smallCfg())
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n)%2000; i++ {
			c.Access(uint64(rng.Intn(1<<16)), rng.Intn(2) == 0)
		}
		st := c.Stats()
		if st.Hits+st.Misses != st.Accesses {
			return false
		}
		return st.HitRate() >= 0 && st.HitRate() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: a working set that fits entirely within the cache converges to a
// high hit rate regardless of the (power-of-two aligned) base address.
func TestPropertyResidentSetHits(t *testing.T) {
	f := func(baseSeed uint16) bool {
		c, err := NewCache(CacheConfig{Name: "c", SizeBytes: 8192, LineBytes: 64, Assoc: 4, HitLatency: 1})
		if err != nil {
			return false
		}
		base := uint64(baseSeed) * 64
		for pass := 0; pass < 8; pass++ {
			for i := uint64(0); i < 32; i++ { // 2 KiB set in an 8 KiB cache
				c.Access(base+i*64, false)
			}
		}
		return c.Stats().HitRate() > 0.8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
