package memsim

import "fmt"

// TLBConfig describes a data TLB. The paper lists TLB miss rates among the
// low-level target metrics a full-system designer may ask a clone to match;
// the TLB model is optional (a zero-valued config disables it) so that the
// default core configurations stay exactly as calibrated for the
// experiments, while users who need TLB behaviour can enable it per core.
type TLBConfig struct {
	// Entries is the number of TLB entries (fully associative, LRU).
	Entries int
	// PageBytes is the page size.
	PageBytes int
	// MissPenalty is the page-walk latency in cycles added to an access that
	// misses the TLB.
	MissPenalty int
}

// Enabled reports whether the configuration describes a TLB at all.
func (c TLBConfig) Enabled() bool { return c.Entries > 0 }

// Validate checks an enabled configuration.
func (c TLBConfig) Validate() error {
	if !c.Enabled() {
		return nil
	}
	if c.PageBytes <= 0 || (c.PageBytes&(c.PageBytes-1)) != 0 {
		return fmt.Errorf("memsim: TLB page size %d must be a positive power of two", c.PageBytes)
	}
	if c.MissPenalty <= 0 {
		return fmt.Errorf("memsim: TLB miss penalty must be positive")
	}
	return nil
}

// TLB is a fully associative, LRU translation lookaside buffer.
type TLB struct {
	cfg     TLBConfig
	entries []tlbEntry
	clock   uint64
	stats   Stats
}

type tlbEntry struct {
	page  uint64
	valid bool
	used  uint64
}

// NewTLB builds a TLB from its configuration. A disabled configuration
// returns nil (callers treat a nil TLB as "always hits, zero latency").
func NewTLB(cfg TLBConfig) (*TLB, error) {
	if !cfg.Enabled() {
		return nil, nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &TLB{cfg: cfg, entries: make([]tlbEntry, cfg.Entries)}, nil
}

// Stats returns a copy of the access statistics.
func (t *TLB) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return t.stats
}

// Reset clears contents and statistics.
func (t *TLB) Reset() {
	if t == nil {
		return
	}
	for i := range t.entries {
		t.entries[i] = tlbEntry{}
	}
	t.clock = 0
	t.stats = Stats{}
}

// Access translates addr, returning the extra latency incurred (0 on hit,
// the miss penalty on a miss). A nil TLB always hits.
func (t *TLB) Access(addr uint64) int {
	if t == nil {
		return 0
	}
	t.clock++
	t.stats.Accesses++
	page := addr / uint64(t.cfg.PageBytes)
	victim := 0
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].page == page {
			t.entries[i].used = t.clock
			t.stats.Hits++
			return 0
		}
		if !t.entries[i].valid {
			victim = i
		} else if t.entries[victim].valid && t.entries[i].used < t.entries[victim].used {
			victim = i
		}
	}
	t.entries[victim] = tlbEntry{page: page, valid: true, used: t.clock}
	t.stats.Misses++
	return t.cfg.MissPenalty
}
