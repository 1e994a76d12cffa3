package tuner

import (
	"context"
	"fmt"
	"math"

	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
)

// constraintPenaltyBase is the loss assigned to a candidate that violates
// the problem constraint exactly at the cap. The penalty grows with the
// relative violation, so the search is still pointed back toward the
// feasible region, and the base is far above any loss the metric models
// produce, so every feasible candidate beats every infeasible one.
const constraintPenaltyBase = 1e6

// engine is the budget-centric core every tuning mechanism runs on. It owns
// the bookkeeping the tuners used to duplicate around evalBatch: scoring
// candidates (including the constraint penalty of power-capped runs),
// counting proposals against Problem.MaxEvaluations, tracking the best
// configuration, appending epoch records with cumulative evaluation
// counts, and deciding termination. A tuner supplies only its
// proposal/update strategy (an epochStep).
type engine struct {
	prob Problem
	res  Result
	// epochStart is the evaluation count at the start of the current epoch.
	epochStart int
	// exhausted is set once the evaluation budget has been fully consumed.
	exhausted bool
	// stopped is set by a strategy that has converged on its own criterion
	// (e.g. GD's stall counter); the epoch loop then ends the run.
	stopped bool
	// onFold, when set, observes every full-fidelity evaluation right after
	// it is folded into the result — brute force uses it to emit its
	// pseudo-epoch records at exact evaluation counts.
	onFold func(cfg knobs.Config, loss float64, v metrics.Vector)
}

// newEngine validates the problem and prepares a run for the named tuner.
func newEngine(name string, prob Problem) (*engine, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	return &engine{prob: prob, res: Result{Tuner: name, BestLoss: math.Inf(1)}}, nil
}

// epochStep is one epoch of a tuning mechanism: propose candidates,
// evaluate them through the engine, update internal state, and return the
// epoch's own loss (what the epoch's output configuration scored).
type epochStep func(ctx context.Context, e *engine, epoch int) (epochLoss float64, err error)

// runEpochs is the shared tuning skeleton: init builds the mechanism's
// per-run state (it may already evaluate through the engine, e.g. simulated
// annealing's starting point) and returns the per-epoch step; the loop then
// drives propose→evaluate→update epochs uniformly, recording each epoch and
// stopping on the target loss, the evaluation budget, mechanism convergence,
// MaxEpochs, or context cancellation.
func runEpochs(ctx context.Context, name string, prob Problem, init func(ctx context.Context, e *engine) (epochStep, error)) (Result, error) {
	e, err := newEngine(name, prob)
	if err != nil {
		return Result{}, err
	}
	step, err := init(ctx, e)
	if err != nil {
		return e.res, err
	}
	for epoch := 0; epoch < prob.MaxEpochs && !e.done() && !e.stopped; epoch++ {
		if err := ctx.Err(); err != nil {
			return e.res, err
		}
		e.startEpoch()
		epochLoss, err := step(ctx, e, epoch)
		if err != nil {
			return e.res, err
		}
		e.endEpoch(epochLoss)
	}
	return e.res, nil
}

// remaining returns how many evaluations the budget still allows.
func (e *engine) remaining() int {
	if e.prob.MaxEvaluations <= 0 {
		return math.MaxInt
	}
	left := e.prob.MaxEvaluations - e.res.TotalEvaluations
	if left < 0 {
		return 0
	}
	return left
}

// score converts a measured vector into the loss strategies compare: the
// problem loss, or — when the candidate violates the constraint — a graded
// penalty that dominates every feasible loss.
func (e *engine) score(v metrics.Vector) float64 {
	loss := e.prob.Loss.Loss(v)
	if e.prob.Constraint != nil {
		if violation := v[e.prob.Constraint.Metric] - e.prob.Constraint.Max; violation > 0 {
			scale := math.Max(math.Abs(e.prob.Constraint.Max), 1)
			loss = constraintPenaltyBase * (1 + violation/scale)
		}
	}
	return loss
}

// fold accumulates one evaluated candidate into the running result: the
// evaluation counter and the best-so-far tracking.
func (e *engine) fold(cfg knobs.Config, loss float64, v metrics.Vector) {
	e.res.TotalEvaluations++
	if better(loss, e.res.BestLoss) {
		e.res.BestLoss = loss
		e.res.Best = cfg.Clone()
		e.res.BestMetrics = v.Clone()
	}
	if e.onFold != nil {
		e.onFold(cfg, loss, v)
	}
}

// evalBatch evaluates candidates at full fidelity: the batch is truncated
// to the remaining budget (setting exhausted when it was cut), handed to
// the evaluator in one call, scored, and folded in proposal order —
// bit-identical to a serial loop. losses[i] and vectors[i] correspond to
// cfgs[i]; both may be shorter than cfgs under a budget.
func (e *engine) evalBatch(ctx context.Context, cfgs []knobs.Config) ([]float64, []metrics.Vector, error) {
	return e.evalBatchAt(ctx, cfgs, 1)
}

// evalBatchAt is evalBatch at an explicit fidelity. Reduced-fidelity
// evaluations (fidelity in (0,1)) consume budget but are NOT folded into
// the best-so-far tracking: their metrics are cheaper
// approximations that must not be compared against full-fidelity results.
// The successive-halving wrapper uses them for its lower rungs.
func (e *engine) evalBatchAt(ctx context.Context, cfgs []knobs.Config, fidelity float64) ([]float64, []metrics.Vector, error) {
	if left := e.remaining(); len(cfgs) > left {
		cfgs = cfgs[:left]
		e.exhausted = true
	}
	if len(cfgs) == 0 {
		return nil, nil, nil
	}
	vs, err := e.prob.Evaluator.EvaluateBatch(ctx, cfgs, fidelity)
	if err != nil {
		return nil, nil, err
	}
	losses := make([]float64, len(vs))
	for i, v := range vs {
		losses[i] = e.score(v)
		if fidelity > 0 && fidelity < 1 {
			e.res.TotalEvaluations++ // budget only; metrics not comparable
			continue
		}
		e.fold(cfgs[i], losses[i], v)
	}
	if e.remaining() == 0 && e.prob.MaxEvaluations > 0 {
		e.exhausted = true
	}
	return losses, vs, nil
}

// evalOne evaluates a single candidate at full fidelity. ok is false when
// the budget is already exhausted (no evaluation happened).
func (e *engine) evalOne(ctx context.Context, cfg knobs.Config) (loss float64, v metrics.Vector, ok bool, err error) {
	losses, vs, err := e.evalBatch(ctx, []knobs.Config{cfg})
	if err != nil {
		return 0, nil, false, err
	}
	if len(losses) == 0 {
		return 0, nil, false, nil
	}
	return losses[0], vs[0], true, nil
}

// charge counts n externally-performed evaluations against the budget (the
// successive-halving wrapper charges its inner tuner's exploration run).
func (e *engine) charge(n int) {
	e.res.TotalEvaluations += n
	if e.prob.MaxEvaluations > 0 && e.res.TotalEvaluations >= e.prob.MaxEvaluations {
		e.exhausted = true
	}
}

// startEpoch snapshots the evaluation counter so the epoch record can
// report the epoch's own cost.
func (e *engine) startEpoch() { e.epochStart = e.res.TotalEvaluations }

// endEpoch appends the epoch record (with the cumulative evaluation count
// the progression plots need) and applies the target-loss check.
func (e *engine) endEpoch(epochLoss float64) {
	e.appendRecord(epochLoss, e.res.TotalEvaluations-e.epochStart)
	e.epochStart = e.res.TotalEvaluations
	if e.targetReached() {
		e.res.Converged = true
	}
}

// appendRecord appends one progression record with the given epoch loss
// and per-epoch evaluation count, deriving everything else from the
// engine's state.
func (e *engine) appendRecord(epochLoss float64, evaluations int) {
	rec := EpochRecord{
		Epoch:                 len(e.res.Epochs) + 1,
		BestLoss:              e.res.BestLoss,
		EpochLoss:             epochLoss,
		Evaluations:           evaluations,
		CumulativeEvaluations: e.res.TotalEvaluations,
	}
	e.res.Epochs = append(e.res.Epochs, rec)
	if e.prob.OnEpoch != nil {
		e.prob.OnEpoch(rec)
	}
}

// targetReached reports whether the best loss has met the target.
func (e *engine) targetReached() bool {
	return e.prob.hasTarget() && e.res.BestLoss <= e.prob.TargetLoss
}

// converge marks the run as converged on the mechanism's own criterion and
// ends the epoch loop.
func (e *engine) converge() {
	e.res.Converged = true
	e.stopped = true
}

// done reports whether the run must stop: target reached or budget spent.
func (e *engine) done() bool {
	return e.res.Converged || e.exhausted
}

// errBudget is a helper for strategies that must not run without a budget.
func errBudget(name string) error {
	return fmt.Errorf("tuner: %s requires Problem.MaxEvaluations to plan its rungs", name)
}
