package platform

import (
	"testing"

	"micrograd/internal/knobs"
	"micrograd/internal/microprobe"
	"micrograd/internal/powersim"
	"micrograd/internal/program"
)

// The allocation pins of the per-candidate hot path: a synthesis miss and a
// metrics-only evaluation allocate only what they return. Each bound is the
// count measured when the pin was set plus one, so a new allocation fails
// it. sync.Pool drops items at random under the race detector, so the pins
// skip there; CI runs them in a separate non-race step.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
}

// stressKernel synthesizes the stress kernel the pins evaluate.
func stressKernel(t *testing.T, syn *microprobe.Synthesizer) *program.Program {
	t.Helper()
	p, err := syn.Synthesize("stress", knobs.StressSpace().MidConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAllocsSynthesizeStressKernel(t *testing.T) {
	skipUnderRace(t)
	syn := microprobe.NewSynthesizer(microprobe.Options{LoopSize: 500, Seed: 1})
	set := knobs.StressSpace().MidConfig().Settings()
	stressKernel(t, syn) // warm the scratch pool
	// The program, its instructions, streams, patterns and notes, the
	// metadata map, and the branch-ratio metadata string.
	const bound = 9 + 1
	got := testing.AllocsPerRun(50, func() {
		if _, err := syn.SynthesizeSettings("stress", set); err != nil {
			t.Fatal(err)
		}
	})
	if got > bound {
		t.Errorf("stress-kernel synthesis miss allocates %v times, want at most %d", got, bound)
	}
}

func TestAllocsDynamicPower(t *testing.T) {
	skipUnderRace(t)
	plat, err := NewSimPlatform(Large())
	if err != nil {
		t.Fatal(err)
	}
	p := stressKernel(t, microprobe.NewSynthesizer(microprobe.Options{LoopSize: 500, Seed: 1}))
	r, err := plat.simulate(p, EvalOptions{DynamicInstructions: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	model, err := powersim.New(Large().Power)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(50, func() { model.DynamicPower(r) }); got != 0 {
		t.Errorf("DynamicPower allocates %v times, want 0", got)
	}
}

func TestAllocsEvaluateRequestMetrics(t *testing.T) {
	skipUnderRace(t)
	plat, err := NewSimPlatform(Large())
	if err != nil {
		t.Fatal(err)
	}
	p := stressKernel(t, microprobe.NewSynthesizer(microprobe.Options{LoopSize: 500, Seed: 1}))
	req := EvalRequest{Programs: []*program.Program{p},
		Options: EvalOptions{DynamicInstructions: 20000, Seed: 1, CollectPower: true}}
	if _, err := plat.EvaluateRequest(req); err != nil { // warm the platform's buffers
		t.Fatal(err)
	}
	// The metric vector, the one thing a metrics-only evaluation returns.
	const bound = 4 + 1
	got := testing.AllocsPerRun(10, func() {
		if _, err := plat.EvaluateRequest(req); err != nil {
			t.Fatal(err)
		}
	})
	if got > bound {
		t.Errorf("metrics-only evaluation with power allocates %v times, want at most %d", got, bound)
	}
}
