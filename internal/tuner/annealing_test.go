package tuner

import (
	"context"
	"math/rand"
	"testing"

	"micrograd/internal/knobs"
)

func TestSAFindsQuadraticOptimum(t *testing.T) {
	space := knobs.InstructionOnlySpace()
	target := space.RandomConfig(rand.New(rand.NewSource(8)))
	prob := quadraticProblem(space, target, 60, 19)
	sa := NewSimulatedAnnealing(SAParams{})
	res, err := sa.Run(context.Background(), prob)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuner != "simulated-annealing" {
		t.Error("result not labelled")
	}
	if res.BestLoss > 5 {
		t.Errorf("SA best loss %v; expected near-zero", res.BestLoss)
	}
	for i := 1; i < len(res.Epochs); i++ {
		if res.Epochs[i].BestLoss > res.Epochs[i-1].BestLoss+1e-12 {
			t.Errorf("best loss increased at epoch %d", i+1)
		}
	}
}

func TestSAEvaluationBudget(t *testing.T) {
	space := knobs.InstructionOnlySpace()
	prob := quadraticProblem(space, space.MidConfig(), 5, 3)
	prob.TargetLoss = NoTargetLoss
	sa := NewSimulatedAnnealing(SAParams{MovesPerEpoch: 12})
	res, err := sa.Run(context.Background(), prob)
	if err != nil {
		t.Fatal(err)
	}
	// 1 initial evaluation + 12 per epoch.
	if want := 1 + 5*12; res.TotalEvaluations != want {
		t.Errorf("evaluations = %d, want %d", res.TotalEvaluations, want)
	}
}

func TestSAConvergesOnTarget(t *testing.T) {
	space := knobs.InstructionOnlySpace()
	target := space.MidConfig()
	prob := quadraticProblem(space, target, 100, 4)
	prob.Initial = target.Clone()
	res, err := NewSimulatedAnnealing(SAParams{}).Run(context.Background(), prob)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.BestLoss != 0 {
		t.Errorf("starting at the optimum should converge immediately: %+v", res.BestLoss)
	}
}

func TestSAErrorAndCancellation(t *testing.T) {
	space := knobs.InstructionOnlySpace()
	prob := quadraticProblem(space, space.MidConfig(), 10, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewSimulatedAnnealing(SAParams{}).Run(ctx, prob); err == nil {
		t.Error("cancelled context should abort")
	}
	if _, err := NewSimulatedAnnealing(SAParams{}).Run(context.Background(), Problem{}); err == nil {
		t.Error("invalid problem should be rejected")
	}
}

func TestSAParamsNormalization(t *testing.T) {
	p := SAParams{MovesPerEpoch: -1, InitialTemperature: 0, CoolingRate: 2, MaxKnobsPerMove: 0}.normalized()
	if p != DefaultSAParams() {
		t.Errorf("normalized params %+v differ from defaults", p)
	}
	sa := NewSimulatedAnnealing(SAParams{})
	if sa.params.MovesPerEpoch != DefaultSAParams().MovesPerEpoch {
		t.Error("constructor did not normalize the params")
	}
}

func TestSANeighbourStaysInRange(t *testing.T) {
	space := knobs.DefaultSpace()
	sa := NewSimulatedAnnealing(SAParams{MaxKnobsPerMove: 3})
	rng := rand.New(rand.NewSource(2))
	cfg := space.MidConfig()
	for i := 0; i < 200; i++ {
		n := sa.neighbour(rng, space, cfg)
		for k := 0; k < space.Len(); k++ {
			if n.Index(k) < 0 || n.Index(k) >= space.Def(k).NumValues() {
				t.Fatal("neighbour out of range")
			}
		}
		// Two moves on the same knob may cancel, so distance 0 is possible
		// but never more than MaxKnobsPerMove single-index steps.
		dist := 0
		for k := 0; k < space.Len(); k++ {
			dist += max(n.Index(k)-cfg.Index(k), cfg.Index(k)-n.Index(k))
		}
		if dist > 3 {
			t.Fatalf("neighbour distance %d exceeds the move limit", dist)
		}
	}
}
