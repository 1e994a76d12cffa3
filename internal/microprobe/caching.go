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
// pass pipeline. Returning the identical *program.Program pointer also lets
// the simulator skip re-validating and re-predecoding the kernel.
//
// Cached programs are shared between callers and MUST be treated as
// read-only. It is safe for concurrent use; concurrent misses on the same key
// may synthesize twice (the synthesizer is pure, so both results are
// identical and either may be cached).
type CachingSynthesizer struct {
	syn   *Synthesizer
	mu    sync.Mutex
	cache map[string]*program.Program
	// cfgCache fronts the settings cache with the cheaper precomputed
	// configuration key, so the warm Synthesize path skips building Settings
	// and its canonical key entirely. Distinct configurations that reduce to
	// the same settings (eval-time knobs differ) still dedupe below.
	cfgCache map[string]*program.Program
	hits     atomic.Uint64
	misses   atomic.Uint64
}

// NewCachingSynthesizer returns a caching synthesizer with the given options
// and an unbounded memo.
func NewCachingSynthesizer(opts Options) *CachingSynthesizer {
	return &CachingSynthesizer{
		syn:      NewSynthesizer(opts),
		cache:    make(map[string]*program.Program),
		cfgCache: make(map[string]*program.Program),
	}
}

// Options returns the (normalized) synthesis options. They are part of a
// kernel's content identity: two caching synthesizers with equal options
// generate identical programs for the same settings, which is what lets a
// server pool synthesizers — and key evaluation caches — by options.
func (c *CachingSynthesizer) Options() Options { return c.syn.Options() }

// Synthesize generates (or recalls) the test case for a knob configuration.
func (c *CachingSynthesizer) Synthesize(name string, cfg knobs.Config) (*program.Program, error) {
	ck := cfg.Key()
	if ck == "" {
		return c.SynthesizeSettings(name, cfg.Settings())
	}
	var buf [memoKeyBuf]byte
	key := memoKey(buf[:0], name, ck)
	c.mu.Lock()
	if p, ok := c.cfgCache[string(key)]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return p, nil
	}
	c.mu.Unlock()
	p, err := c.SynthesizeSettings(name, cfg.Settings())
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.cfgCache[string(key)] = p
	c.mu.Unlock()
	return p, nil
}

// SynthesizeSettings generates (or recalls) the test case for explicit
// back-end settings.
func (c *CachingSynthesizer) SynthesizeSettings(name string, set knobs.Settings) (*program.Program, error) {
	var buf [memoKeyBuf]byte
	key := memoKey(buf[:0], name, set.CanonicalKey())
	c.mu.Lock()
	if p, ok := c.cache[string(key)]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return p, nil
	}
	c.mu.Unlock()

	p, err := c.syn.SynthesizeSettings(name, set)
	if err != nil {
		return nil, err
	}
	c.misses.Add(1)
	c.mu.Lock()
	c.cache[string(key)] = p
	c.mu.Unlock()
	return p, nil
}

// memoKeyBuf is the stack buffer size memo keys are built in; longer keys
// spill to the heap.
const memoKeyBuf = 256

// memoKey appends a memo key, the kernel name and the configuration or
// settings key joined by a NUL, to buf. Lookups index the memo with
// string(key), which does not allocate; only an insertion copies the key.
func memoKey(buf []byte, name, key string) []byte {
	buf = append(buf, name...)
	buf = append(buf, 0)
	return append(buf, key...)
}

// Len returns the number of kernels the memo holds, one per distinct kernel
// name and settings. The memo never evicts, so Len only grows.
func (c *CachingSynthesizer) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cache)
}

// Stats returns the memo's cumulative hit and miss counts.
func (c *CachingSynthesizer) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}
