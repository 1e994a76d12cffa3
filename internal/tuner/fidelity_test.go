package tuner

import (
	"context"
	"testing"

	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/sched"
)

// fidelityRecordingEval is a fidelity-aware evaluator that records the
// fidelity of every call, so tests can see which level each request ran at.
func fidelityRecordingEval(calls *[]float64) sched.EvalFunc {
	return func(cfg knobs.Config, fidelity float64) (metrics.Vector, error) {
		*calls = append(*calls, fidelity)
		v, err := bumpyEval(cfg)
		if err != nil {
			return nil, err
		}
		v["fidelity"] = fidelity
		return v, nil
	}
}

// TestMemoViewsKeepFidelityLevelsApart pins the caching contract across
// fidelity levels: the memo keys each level separately — a half-fidelity
// result must never be served for a full-fidelity request — while Misses()
// keeps counting the real evaluations of every level.
func TestMemoViewsKeepFidelityLevelsApart(t *testing.T) {
	space := parallelTestSpace(t)
	cfg := space.MidConfig()
	var calls []float64
	memo := NewSharedMemoizingEvaluator(fidelityRecordingEval(&calls), nil, sharedKeyer)
	ctx := context.Background()
	one := []knobs.Config{cfg}

	full, err := memo.EvaluateBatch(ctx, one, 1)
	if err != nil {
		t.Fatal(err)
	}
	half, err := memo.EvaluateBatch(ctx, one, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if full[0]["fidelity"] != 1 || half[0]["fidelity"] != 0.5 {
		t.Errorf("fidelities = %g / %g, want 1 / 0.5", full[0]["fidelity"], half[0]["fidelity"])
	}
	// Same levels hit their own cache entries; both real runs were counted.
	for _, fidelity := range []float64{1, 0.5} {
		vs, err := memo.EvaluateBatch(ctx, one, fidelity)
		if err != nil {
			t.Fatal(err)
		}
		if vs[0]["fidelity"] != fidelity {
			t.Errorf("level %g served a result measured at %g", fidelity, vs[0]["fidelity"])
		}
	}
	if len(calls) != 2 || memo.Misses() != 2 {
		t.Errorf("simulations = %d, memo misses = %d, want 2 and 2 (one run per level)",
			len(calls), memo.Misses())
	}
	// A batch stays level-separated too: only the new configuration runs.
	if _, err := memo.EvaluateBatch(ctx, []knobs.Config{cfg, cfg.Step(1, 1)}, 0.5); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 3 || memo.Misses() != 3 {
		t.Errorf("simulations after batch = %d (misses %d), want 3", len(calls), memo.Misses())
	}
}

// TestHalvingBindsExplorationFidelity pins where successive halving's
// fidelities come from: the inner tuner's whole exploration budget runs at
// the cheapest rung's fidelity (bound by the recording evaluator, whatever
// the inner tuner asks for), the promotion rungs rise, and the last rung
// evaluates at full fidelity.
func TestHalvingBindsExplorationFidelity(t *testing.T) {
	var calls []float64
	sh := NewSuccessiveHalving(NewRandomSearch(RandomSearchParams{EvaluationsPerEpoch: 9}), SuccessiveHalvingParams{})
	res, err := sh.Run(context.Background(), Problem{
		Space:          parallelTestSpace(t),
		Loss:           metrics.StressLoss{Metric: "score"},
		Evaluator:      fidelityRecordingEval(&calls),
		MaxEpochs:      5,
		MaxEvaluations: 54,
		TargetLoss:     NoTargetLoss,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	explore := res.Epochs[0].Evaluations
	if explore == 0 || len(calls) != res.TotalEvaluations {
		t.Fatalf("explored %d, evaluated %d, charged %d", explore, len(calls), res.TotalEvaluations)
	}
	for i, f := range calls[:explore] {
		if f != sh.fidelityAt(0) {
			t.Fatalf("exploration call %d ran at fidelity %g, want %g", i, f, sh.fidelityAt(0))
		}
	}
	for i := explore + 1; i < len(calls); i++ {
		if calls[i] < calls[i-1] {
			t.Errorf("fidelity fell from %g to %g at call %d", calls[i-1], calls[i], i)
		}
	}
	if last := calls[len(calls)-1]; last != 1 {
		t.Errorf("final rung ran at fidelity %g, want 1", last)
	}
	if res.BestMetrics["fidelity"] != 1 {
		t.Errorf("best result measured at fidelity %g, want 1", res.BestMetrics["fidelity"])
	}
}
