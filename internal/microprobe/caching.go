package microprobe

import (
	"sync"
	"sync/atomic"

	"micrograd/internal/knobs"
	"micrograd/internal/program"
)

// CachingSynthesizer wraps a Synthesizer with a memo keyed on the kernel name
// and the canonical settings key, so that candidates differing only in
// evaluation-time parameters (seeds, per-core clock overrides, instruction
// budgets) reuse the already-synthesized program instead of re-running the
// passes. Returning the identical *program.Program pointer also lets the
// simulator skip re-validating and re-predecoding the kernel.
//
// Cached programs are shared between callers and MUST be treated as
// read-only. It is safe for concurrent use; concurrent misses on the same key
// may synthesize twice (the synthesizer is pure, so both results are
// identical and either may be cached).
type CachingSynthesizer struct {
	syn    *Synthesizer
	mu     sync.Mutex
	memo   map[string]*program.Program
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewCachingSynthesizer returns a caching synthesizer with the given options
// and an unbounded memo.
func NewCachingSynthesizer(opts Options) *CachingSynthesizer {
	return &CachingSynthesizer{syn: NewSynthesizer(opts), memo: make(map[string]*program.Program)}
}

// Options returns the (normalized) synthesis options. They are part of a
// kernel's content identity: two caching synthesizers with equal options
// generate identical programs for the same settings, which is what lets a
// server pool synthesizers — and key evaluation caches — by options.
func (c *CachingSynthesizer) Options() Options { return c.syn.Options() }

// Synthesize generates (or recalls) the test case for a knob configuration.
// A hit allocates nothing.
func (c *CachingSynthesizer) Synthesize(name string, cfg knobs.Config) (*program.Program, error) {
	set := cfg.Settings()
	var buf [memoKeyBuf]byte
	key := memoKey(buf[:0], name, &set)
	if p, ok := c.recall(key); ok {
		return p, nil
	}
	p, err := c.syn.SynthesizeSettings(name, set)
	if err != nil {
		return nil, err
	}
	c.remember(key, p)
	return p, nil
}

// SynthesizeCores generates (or recalls) the kernels of a co-run
// configuration, as Synthesizer.SynthesizeCores does. The cores the memo
// misses are built and memoized: a single miss through every pass, as
// Synthesize would, and several from one run of the passes for their shared
// shape.
func (c *CachingSynthesizer) SynthesizeCores(progs []*program.Program, names []string, cfg knobs.Config) error {
	set := cfg.Settings()
	misses := 0
	for i := range progs {
		coreSet := coreSettings(cfg, set, i)
		var buf [memoKeyBuf]byte
		if progs[i], _ = c.recall(memoKey(buf[:0], names[i], &coreSet)); progs[i] == nil {
			misses++
		}
	}
	return c.syn.buildCores(progs, names, cfg, set, misses, c)
}

// memoKeyBuf is the stack buffer size memo keys are built in; longer keys
// spill to the heap.
const memoKeyBuf = 256

// memoKey appends a memo key, the kernel name and the settings' canonical
// key joined by a NUL, to buf. Lookups index the memo with string(key),
// which does not allocate; only an insertion copies the key.
func memoKey(buf []byte, name string, set *knobs.Settings) []byte {
	buf = append(buf, name...)
	buf = append(buf, 0)
	return set.AppendCanonicalKey(buf)
}

// recall returns the kernel memoized under key, counting a hit.
func (c *CachingSynthesizer) recall(key []byte) (*program.Program, bool) {
	c.mu.Lock()
	p, ok := c.memo[string(key)]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	}
	return p, ok
}

// remember memoizes a kernel synthesized on a miss under key.
func (c *CachingSynthesizer) remember(key []byte, p *program.Program) {
	c.misses.Add(1)
	c.mu.Lock()
	c.memo[string(key)] = p
	c.mu.Unlock()
}

// Len returns the number of kernels the memo holds, one per distinct kernel
// name and settings. The memo never evicts, so Len only grows.
func (c *CachingSynthesizer) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.memo)
}

// Stats returns the memo's cumulative hit and miss counts.
func (c *CachingSynthesizer) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}
