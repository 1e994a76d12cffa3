package tuner

import (
	"context"
	"testing"

	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
)

// TestTunersEvaluateInitial is the cross-mechanism conformance test: every
// registered tuner must actually evaluate Problem.Initial when set (not just
// bias its search toward it) and must stop as soon as Problem.TargetLoss is
// reached. The evaluator scores the initial configuration 0 and everything
// else 1, so a tuner passes exactly when the initial evaluation happened and
// the target check fired on it.
func TestTunersEvaluateInitial(t *testing.T) {
	space := parallelTestSpace(t)
	initial := space.MidConfig()
	for _, name := range Names() {
		tun, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(tun.Name(), func(t *testing.T) {
			eval := blind(func(cfg knobs.Config) (metrics.Vector, error) {
				score := 1.0
				if cfg.Equal(initial) {
					score = 0
				}
				return metrics.Vector{"score": score}, nil
			})
			res, err := tun.Run(context.Background(), Problem{
				Space:          space,
				Loss:           metrics.StressLoss{Metric: "score"},
				Evaluator:      NewSharedMemoizingEvaluator(eval, nil, sharedKeyer),
				MaxEpochs:      40,
				MaxEvaluations: 600,
				TargetLoss:     0,
				Seed:           7,
				Initial:        initial,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.BestLoss != 0 {
				t.Errorf("BestLoss = %v, want 0 (the initial configuration was never evaluated)", res.BestLoss)
			}
			if !res.Best.Equal(initial) {
				t.Errorf("Best = %v, want the initial configuration %v", res.Best, initial)
			}
			if !res.Converged {
				t.Error("Converged = false, want true (TargetLoss was reached)")
			}
			if res.TotalEvaluations > 600 {
				t.Errorf("TotalEvaluations = %d exceeds the budget 600", res.TotalEvaluations)
			}
		})
	}
}

// TestNoTunerExceedsBudget is the budget property test: whatever the
// mechanism, Problem.MaxEvaluations is a hard ceiling on proposed
// evaluations — and therefore on real simulator work too.
func TestNoTunerExceedsBudget(t *testing.T) {
	space := parallelTestSpace(t)
	for _, budget := range []int{7, 23, 60} {
		for _, name := range Names() {
			tun, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(tun.Name(), func(t *testing.T) {
				memo := NewSharedMemoizingEvaluator(blind(bumpyEval), nil, sharedKeyer)
				res, err := tun.Run(context.Background(), Problem{
					Space:          space,
					Loss:           metrics.StressLoss{Metric: "score"},
					Evaluator:      memo,
					MaxEpochs:      50,
					MaxEvaluations: budget,
					TargetLoss:     NoTargetLoss,
					Seed:           3,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.TotalEvaluations > budget {
					t.Errorf("proposed %d evaluations, budget is %d", res.TotalEvaluations, budget)
				}
				if int(memo.Misses()) > res.TotalEvaluations {
					t.Errorf("simulated %d evaluations but only %d were proposed", memo.Misses(), res.TotalEvaluations)
				}
				cum := 0
				for _, er := range res.Epochs {
					if er.CumulativeEvaluations < cum {
						t.Errorf("epoch %d: CumulativeEvaluations %d decreased from %d", er.Epoch, er.CumulativeEvaluations, cum)
					}
					cum = er.CumulativeEvaluations
				}
				if cum > res.TotalEvaluations {
					t.Errorf("final CumulativeEvaluations %d exceeds TotalEvaluations %d", cum, res.TotalEvaluations)
				}
			})
		}
	}
}

// TestBudgetCountsProposedEvaluations pins the budget semantics: the budget
// is charged per *proposed* evaluation, memo hits included — the budget
// models the tuner's search effort, while the memo's Misses report
// the real simulator work. Random search on a 4-point space re-proposes the
// same configurations over and over; the run must stop at exactly the
// budget even though only 4 simulations ever happen.
func TestBudgetCountsProposedEvaluations(t *testing.T) {
	space, err := knobs.NewSpace([]knobs.Def{
		{Name: "a", Kind: knobs.KindRegDist, Values: []float64{1, 2}},
		{Name: "b", Kind: knobs.KindMemSize, Values: []float64{1, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	eval, calls := countingEval(bumpyEval)
	memo := NewSharedMemoizingEvaluator(eval, nil, sharedKeyer)
	res, err := NewRandomSearch(RandomSearchParams{EvaluationsPerEpoch: 10}).Run(context.Background(), Problem{
		Space:          space,
		Loss:           metrics.StressLoss{Metric: "score"},
		Evaluator:      memo,
		MaxEpochs:      10,
		MaxEvaluations: 35,
		TargetLoss:     NoTargetLoss,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEvaluations != 35 {
		t.Errorf("TotalEvaluations = %d, want exactly the budget 35 (proposed evaluations, hits included)", res.TotalEvaluations)
	}
	if got := len(res.Epochs); got != 4 {
		t.Errorf("epochs = %d, want 4 (10+10+10+5)", got)
	}
	if last := res.Epochs[len(res.Epochs)-1]; last.Evaluations != 5 || last.CumulativeEvaluations != 35 {
		t.Errorf("final epoch = %d evaluations / %d cumulative, want 5 / 35 (budget truncates the epoch)",
			last.Evaluations, last.CumulativeEvaluations)
	}
	if calls.Load() > 4 {
		t.Errorf("simulated %d configurations, want <= 4 (the whole space)", calls.Load())
	}
	if misses := memo.Misses(); misses != uint64(calls.Load()) {
		t.Errorf("memo misses = %d, want %d simulations", misses, calls.Load())
	}
}
