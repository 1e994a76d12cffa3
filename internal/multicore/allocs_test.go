package multicore

import (
	"testing"

	"micrograd/internal/knobs"
	"micrograd/internal/microprobe"
	"micrograd/internal/platform"
	"micrograd/internal/program"
)

// The allocation pin of a chip evaluation: a warm metrics-only evaluation
// allocates its metric vector (4 allocations for the map and its storage)
// and the closure it fans the cores out with, nothing else. Each bound is
// the count measured when the pin was set plus one, so a new allocation
// fails it. The counts are not meaningful under the race detector, so the
// pin skips there; CI runs it in a separate non-race step.

// distinctKernels synthesizes one kernel per core of c from the space's
// mid configuration, core i at its PHASE_OFFSET knob's i-th value, so no
// two cores share a simulation.
func distinctKernels(t *testing.T, c *CoRunPlatform, space *knobs.Space) []*program.Program {
	t.Helper()
	cfg := space.MidConfig()
	for i := 0; i < c.NumCores(); i++ {
		k, ok := space.IndexOf(knobs.PhaseOffsetName(i))
		if !ok {
			t.Fatalf("space has no %s", knobs.PhaseOffsetName(i))
		}
		cfg = cfg.WithIndex(k, i)
	}
	progs, err := c.SynthesizeCoRun("allocs", cfg, microprobe.NewSynthesizer(microprobe.Options{LoopSize: 200, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	return progs
}

func TestAllocsChipEvaluate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		name  string
		spec  CoRunSpec
		space *knobs.Space
		bound float64
	}{
		{"lumped-4c", Homogeneous(platform.Small(), 4), knobs.CoRunStressSpace(4), 5 + 1},
		{"grid-2x2", Homogeneous(platform.Small(), 4).WithGrid(2, 2, nil), knobs.SpatialStressSpace(4), 5 + 1},
		{"grid-1x2", Homogeneous(platform.Small(), 2).WithGrid(1, 2, nil), knobs.SpatialStressSpace(2), 5 + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			req := platform.EvalRequest{Programs: distinctKernels(t, c, tc.space),
				Options: platform.EvalOptions{DynamicInstructions: 6000, Seed: 1}}
			if _, err := c.EvaluateRequest(req); err != nil { // warm the chip's buffers
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(10, func() {
				if _, err := c.EvaluateRequest(req); err != nil {
					t.Fatal(err)
				}
			})
			if c.SharedCores() != 0 {
				t.Fatalf("%d cores shared a simulation; the pin wants every core simulated", c.SharedCores())
			}
			if got > tc.bound {
				t.Errorf("warm metrics-only chip evaluation allocates %v times, want at most %v", got, tc.bound)
			}
		})
	}
}
