package microprobe

import (
	"testing"

	"micrograd/internal/knobs"
)

// TestAllocsCachingSynthesizerHit pins a memo hit at zero allocations: the
// settings and the memo key are built on the stack.
func TestAllocsCachingSynthesizerHit(t *testing.T) {
	c := NewCachingSynthesizer(Options{LoopSize: 120, Seed: 1})
	for name, cfg := range map[string]knobs.Config{
		"stress": knobs.StressSpace().MidConfig(), "spatial-4c": knobs.SpatialStressSpace(4).MidConfig(),
	} {
		if _, err := c.Synthesize(name, cfg); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := c.Synthesize(name, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("%s: memo hit allocates %v times, want 0", name, got)
		}
	}
}
