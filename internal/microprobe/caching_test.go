package microprobe

import (
	"testing"

	"micrograd/internal/knobs"
)

// TestCachingSynthesizerReusesPrograms checks that repeat syntheses return
// the identical program pointer (which is what lets the simulator skip
// re-validating and re-predecoding) and that the counters track hits/misses.
func TestCachingSynthesizerReusesPrograms(t *testing.T) {
	c := NewCachingSynthesizer(Options{LoopSize: 120, Seed: 3})
	cfg := knobs.StressSpace().MidConfig()

	p1, err := c.Synthesize("memo", cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Synthesize("memo", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("repeat synthesis should return the cached program pointer")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1 / 1", hits, misses)
	}
	if n := c.Len(); n != 1 {
		t.Errorf("Len = %d after one distinct kernel, want 1", n)
	}

	// A different kernel name is a different cache entry even for the same
	// configuration.
	p3, err := c.Synthesize("other", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("different kernel names must not share cache entries")
	}
	if n := c.Len(); n != 2 {
		t.Errorf("Len = %d after two distinct kernels, want 2", n)
	}

	// The cached program matches a plain synthesis bit for bit.
	plain, err := NewSynthesizer(Options{LoopSize: 120, Seed: 3}).Synthesize("memo", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Instructions) != len(p1.Instructions) {
		t.Fatalf("cached program length %d != plain %d", len(p1.Instructions), len(plain.Instructions))
	}
	for i := range plain.Instructions {
		if plain.Instructions[i] != p1.Instructions[i] {
			t.Fatalf("cached program diverges from plain synthesis at instruction %d", i)
		}
	}
}

// TestCachingSynthesizerDedupesEvalTimeKnobs checks the point of keying on
// canonical settings: configurations differing only in evaluation-time knobs
// (FREQ_GHZ) share one synthesized kernel.
func TestCachingSynthesizerDedupesEvalTimeKnobs(t *testing.T) {
	space := knobs.DVFSStressSpace(1)
	idx, ok := space.IndexOf(knobs.FreqGHzName(0))
	if !ok {
		t.Fatal("DVFS space should tune FREQ_GHZ_0")
	}
	cfgA := space.MidConfig()
	cfgB := cfgA.WithIndex(idx, 0)
	if cfgA.Key() == cfgB.Key() {
		t.Fatal("test configs should differ")
	}

	c := NewCachingSynthesizer(Options{LoopSize: 120, Seed: 3})
	pA, err := c.Synthesize("dvfs", cfgA)
	if err != nil {
		t.Fatal(err)
	}
	pB, err := c.Synthesize("dvfs", cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if pA != pB {
		t.Error("configs differing only in FREQ_GHZ should share the synthesized kernel")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1 / 1", hits, misses)
	}
	if n := c.Len(); n != 1 {
		t.Errorf("Len = %d, want 1 shared kernel", n)
	}
}
