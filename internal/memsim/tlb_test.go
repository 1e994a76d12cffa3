package memsim

import "testing"

func tlbCfg() TLBConfig { return TLBConfig{Entries: 4, PageBytes: 4096, MissPenalty: 30} }

func TestTLBConfigValidate(t *testing.T) {
	if err := (TLBConfig{}).Validate(); err != nil {
		t.Error("disabled TLB should validate")
	}
	if (TLBConfig{}).Enabled() {
		t.Error("zero config should be disabled")
	}
	if err := tlbCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []TLBConfig{
		{Entries: 4, PageBytes: 0, MissPenalty: 30},
		{Entries: 4, PageBytes: 3000, MissPenalty: 30},
		{Entries: 4, PageBytes: 4096, MissPenalty: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
		if _, err := NewTLB(c); err == nil {
			t.Errorf("case %d: NewTLB should fail", i)
		}
	}
}

func TestNilTLBAlwaysHits(t *testing.T) {
	tlb, err := NewTLB(TLBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if tlb != nil {
		t.Fatal("disabled config should return a nil TLB")
	}
	if tlb.Access(0x1234) != 0 {
		t.Error("nil TLB should add no latency")
	}
	if tlb.Stats() != (Stats{}) {
		t.Error("nil TLB should have empty stats")
	}
	tlb.Reset() // must not panic
}

func TestTLBHitMissAndLRU(t *testing.T) {
	tlb, err := NewTLB(tlbCfg())
	if err != nil {
		t.Fatal(err)
	}
	page := func(i uint64) uint64 { return i * 4096 }
	if tlb.Access(page(0)) != 30 {
		t.Error("cold access should pay the miss penalty")
	}
	if tlb.Access(page(0)+100) != 0 {
		t.Error("same-page access should hit")
	}
	// Fill the remaining 3 entries, then touch page 0 to make it MRU, then a
	// 5th page must evict the LRU (page 1).
	tlb.Access(page(1))
	tlb.Access(page(2))
	tlb.Access(page(3))
	tlb.Access(page(0))
	tlb.Access(page(4)) // evicts page 1
	if tlb.Access(page(1)) == 0 {
		t.Error("page 1 should have been evicted (LRU)")
	}
	if tlb.Access(page(0)) != 0 {
		t.Error("page 0 should still be resident")
	}
	st := tlb.Stats()
	if st.Hits+st.Misses != st.Accesses {
		t.Errorf("inconsistent stats: %+v", st)
	}
}

func TestTLBReset(t *testing.T) {
	tlb, _ := NewTLB(tlbCfg())
	tlb.Access(0)
	tlb.Reset()
	if tlb.Stats().Accesses != 0 {
		t.Error("reset did not clear stats")
	}
	if tlb.Access(0) == 0 {
		t.Error("reset did not clear contents")
	}
}

func TestHierarchyWithDTLB(t *testing.T) {
	cfg := hierCfg()
	cfg.DTLB = TLBConfig{Entries: 8, PageBytes: 4096, MissPenalty: 25}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.DTLB() == nil {
		t.Fatal("DTLB not instantiated")
	}
	// Touch many distinct pages: every access misses the 8-entry TLB and the
	// latency must include the page-walk penalty.
	lat, _, _, _ := h.AccessDataEv(0, false)
	if lat < cfg.DTLB.MissPenalty {
		t.Errorf("latency %d does not include the TLB miss penalty", lat)
	}
	for i := uint64(1); i < 64; i++ {
		h.AccessDataEv(i*4096, false)
	}
	st := h.DTLB().Stats()
	if st.Accesses != 64 {
		t.Errorf("DTLB accesses = %d, want 64", st.Accesses)
	}
	if st.MissRate() < 0.9 {
		t.Errorf("page-per-access pattern should mostly miss, got miss rate %v", st.MissRate())
	}
	// Hits within one page add no penalty relative to the plain hierarchy.
	warm, _, _, _ := h.AccessDataEv(0*4096+8, false)
	if warm >= cfg.DTLB.MissPenalty {
		t.Logf("note: access latency %d (page may have been evicted)", warm)
	}
	h.Reset()
	if h.DTLB().Stats().Accesses != 0 {
		t.Error("hierarchy reset did not reset the DTLB")
	}

	bad := hierCfg()
	bad.DTLB = TLBConfig{Entries: 8, PageBytes: 4096}
	if _, err := NewHierarchy(bad); err == nil {
		t.Error("invalid DTLB config should be rejected")
	}
}

func TestHierarchyWithoutDTLBUnchanged(t *testing.T) {
	h, err := NewHierarchy(hierCfg())
	if err != nil {
		t.Fatal(err)
	}
	if h.DTLB() != nil {
		t.Error("default hierarchy should have no DTLB")
	}
	cfg := hierCfg()
	if lat, _, _, _ := h.AccessDataEv(0x100, false); lat != cfg.L1D.HitLatency+cfg.L2.HitLatency+cfg.MemLatency {
		t.Errorf("latency changed for TLB-less hierarchy: %d", lat)
	}
}
