package knobs

import "testing"

// TestAllocsConfigSettings pins Config.Settings, which every synthesis
// lookup calls, at zero allocations: the instruction profile is a fixed
// table inside Settings, and the canonical key appends into the caller's
// buffer.
func TestAllocsConfigSettings(t *testing.T) {
	for name, space := range map[string]*Space{
		"default": DefaultSpace(), "stress": StressSpace(), "spatial-4c": SpatialStressSpace(4),
		"instruction-only": InstructionOnlySpace(),
	} {
		cfg := space.MidConfig()
		var buf [256]byte
		got := testing.AllocsPerRun(100, func() {
			set := cfg.Settings()
			_ = set.AppendCanonicalKey(buf[:0])
		})
		if got != 0 {
			t.Errorf("%s: Settings and its canonical key allocate %v times, want 0", name, got)
		}
	}
}
