package tuner

import (
	"context"
	"testing"

	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
)

// multiObjectiveSpace is a 4x4 space whose two knob values a, b drive a
// synthetic tradeoff: obj = a, sec = 5-a (so no configuration wins on both),
// power = a+b (the constrained metric).
func multiObjectiveSpace(t *testing.T) *knobs.Space {
	t.Helper()
	space, err := knobs.NewSpace([]knobs.Def{
		{Name: "a", Kind: knobs.KindRegDist, Values: []float64{1, 2, 3, 4}},
		{Name: "b", Kind: knobs.KindMemSize, Values: []float64{1, 2, 3, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return space
}

func tradeoffEval(cfg knobs.Config) (metrics.Vector, error) {
	a, b := cfg.Value(0), cfg.Value(1)
	return metrics.Vector{"obj": a, "sec": 5 - a, "power": a + b}, nil
}

// TestParetoFrontIsFeasibleAndNonDominated sweeps the whole space with brute
// force under a power cap and checks the multi-objective outputs: the front
// holds only feasible, mutually non-dominated points, sorted by the primary
// loss.
func TestParetoFrontIsFeasibleAndNonDominated(t *testing.T) {
	space := multiObjectiveSpace(t)
	res, err := NewBruteForce(BruteForceParams{}).Run(context.Background(), Problem{
		Space:      space,
		Loss:       metrics.StressLoss{Metric: "obj"},
		Secondary:  metrics.StressLoss{Metric: "sec"},
		Constraint: &Constraint{Metric: "power", Max: 5},
		Evaluator:  NewMemoizingEvaluator(blind(tradeoffEval)),
		MaxEpochs:  1,
		TargetLoss: NoTargetLoss,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestLoss != 1 {
		t.Errorf("BestLoss = %v, want 1 (a=1 is feasible)", res.BestLoss)
	}
	// Every a in 1..4 has a feasible b, and no a dominates another (sec moves
	// the other way), so the front carries one point per a value.
	if len(res.Pareto) != 4 {
		t.Fatalf("Pareto front has %d points, want 4: %+v", len(res.Pareto), res.Pareto)
	}
	for i, p := range res.Pareto {
		if p.Metrics["power"] > 5 {
			t.Errorf("front point %d is infeasible: power %v > cap 5", i, p.Metrics["power"])
		}
		if want := float64(i + 1); p.Loss != want || p.Secondary != 5-want {
			t.Errorf("front point %d = (%.0f, %.0f), want (%.0f, %.0f) (sorted by primary loss)",
				i, p.Loss, p.Secondary, want, 5-want)
		}
		for j, q := range res.Pareto {
			if i != j && p.Loss <= q.Loss && p.Secondary <= q.Secondary {
				t.Errorf("front point %d dominates point %d: front is not non-dominated", i, j)
			}
		}
	}
}

// TestConstraintSteersBestAwayFromInfeasible inverts the objective so the
// unconstrained optimum (a=b=4) violates the cap: the penalty must keep the
// reported best inside the feasible region.
func TestConstraintSteersBestAwayFromInfeasible(t *testing.T) {
	space := multiObjectiveSpace(t)
	eval := blind(func(cfg knobs.Config) (metrics.Vector, error) {
		a, b := cfg.Value(0), cfg.Value(1)
		return metrics.Vector{"obj": 10 - a - b, "power": a + b}, nil
	})
	res, err := NewBruteForce(BruteForceParams{}).Run(context.Background(), Problem{
		Space:      space,
		Loss:       metrics.StressLoss{Metric: "obj"},
		Constraint: &Constraint{Metric: "power", Max: 5},
		Evaluator:  NewMemoizingEvaluator(eval),
		MaxEpochs:  1,
		TargetLoss: NoTargetLoss,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestMetrics["power"] > 5 {
		t.Errorf("best configuration violates the cap: power %v > 5", res.BestMetrics["power"])
	}
	if res.BestLoss != 5 {
		t.Errorf("BestLoss = %v, want 5 (the best feasible a+b is 5)", res.BestLoss)
	}
	if res.Pareto != nil {
		t.Errorf("Pareto front should be nil without a Secondary objective, got %+v", res.Pareto)
	}
}
