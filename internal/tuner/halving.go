package tuner

import (
	"context"
	"fmt"
	"math"
	"sort"

	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
)

// The successive-halving ladder: three rungs at fidelities 1/9, 1/3 and 1.
const (
	// halvingRungs is the number of fidelity rungs, including the
	// full-fidelity final rung.
	halvingRungs = 3
	// halvingEta is the halving rate: each rung promotes roughly the best
	// 1/halvingEta of its candidates to the next, more expensive rung.
	halvingEta = 3.0
	// halvingMinFidelity is the fidelity of the cheapest (exploration) rung;
	// the ladder rises geometrically from it to 1.
	halvingMinFidelity = 1.0 / 9
)

// SuccessiveHalving wraps any inner tuner with reduced-fidelity screening:
// the inner tuner explores at the cheapest fidelity (shortened simulation
// windows — the synthesis memo still reuses each configuration's kernels
// across rungs, since fidelity is an evaluation-time knob), and the
// configurations it visited are then re-ranked on successively more faithful
// rungs, with only the best fraction promoted each time. The final rung runs
// at full fidelity and is the only one whose results enter the best-so-far
// tracking — screening losses are cheaper approximations and must not be
// compared against full evaluations.
//
// Every evaluation, at any fidelity, counts against Problem.MaxEvaluations,
// which the wrapper requires: the budget is what it allocates across rungs.
type SuccessiveHalving struct {
	inner Tuner
}

// NewSuccessiveHalving wraps inner.
func NewSuccessiveHalving(inner Tuner) *SuccessiveHalving {
	return &SuccessiveHalving{inner: inner}
}

// Name implements Tuner.
func (s *SuccessiveHalving) Name() string { return "halving-" + s.inner.Name() }

// halvingFidelityAt returns the fidelity of rung r on the geometric ladder
// from halvingMinFidelity (r=0) to 1 (r=halvingRungs-1).
func halvingFidelityAt(r int) float64 {
	frac := float64(halvingRungs-1-r) / float64(halvingRungs-1)
	return math.Pow(halvingMinFidelity, frac)
}

// candidate is one configuration surfaced by the exploration rung.
type candidate struct {
	cfg  knobs.Config
	loss float64 // screening loss at the most recent rung
	seen int     // first-seen order, the deterministic tie-breaker
}

// recordingEvaluator is the exploration rung's evaluator and the one place
// the rung's fidelity is bound: whatever fidelity the inner tuner asks for,
// it evaluates at the exploration fidelity. It records, in proposal order,
// every distinct configuration the inner tuner visited together with its
// screening loss. Proposal order (not completion order) is what makes the
// candidate pool identical whether the wrapped evaluator fans out or not.
// Only the inner tuner's loop calls it, one batch at a time.
type recordingEvaluator struct {
	inner    Evaluator
	fidelity float64
	score    func(metrics.Vector) float64
	first    map[string]bool
	pool     []candidate
}

// EvaluateBatch implements Evaluator: results are recorded in batch
// (proposal) order after the whole batch returns.
func (r *recordingEvaluator) EvaluateBatch(ctx context.Context, cfgs []knobs.Config, _ float64) ([]metrics.Vector, error) {
	vs, err := r.inner.EvaluateBatch(ctx, cfgs, r.fidelity)
	if err != nil {
		return nil, err
	}
	for i, cfg := range cfgs {
		key := cfg.Key()
		if r.first[key] {
			continue
		}
		r.first[key] = true
		r.pool = append(r.pool, candidate{cfg: cfg.Clone(), loss: r.score(vs[i]), seen: len(r.pool)})
	}
	return vs, nil
}

// Run implements Tuner.
func (s *SuccessiveHalving) Run(ctx context.Context, prob Problem) (Result, error) {
	e, err := newEngine(s.Name(), prob)
	if err != nil {
		return Result{}, err
	}
	if prob.MaxEvaluations <= 0 {
		return Result{}, errBudget(s.Name())
	}

	// Rung 0: the inner tuner explores at the cheapest fidelity with an
	// equal share of the budget. Its own target check is disabled (screening
	// losses are not comparable to the caller's full-fidelity target).
	exploreBudget := prob.MaxEvaluations / halvingRungs
	if exploreBudget < 1 {
		exploreBudget = 1
	}
	rec := &recordingEvaluator{
		inner:    prob.Evaluator,
		fidelity: halvingFidelityAt(0),
		score:    e.score,
		first:    make(map[string]bool),
	}
	sub := prob
	sub.Evaluator = rec
	sub.MaxEvaluations = exploreBudget
	sub.TargetLoss = NoTargetLoss
	innerRes, err := s.inner.Run(ctx, sub)
	if err != nil {
		return e.res, fmt.Errorf("tuner: halving exploration (%s): %w", s.inner.Name(), err)
	}
	e.charge(innerRes.TotalEvaluations)
	pool := rec.pool

	rank := func(pool []candidate) {
		sort.SliceStable(pool, func(a, b int) bool {
			//lint:allow floateq exact tie-break in a sort comparator; a tolerance would break transitivity
			if pool[a].loss != pool[b].loss {
				return pool[a].loss < pool[b].loss
			}
			return pool[a].seen < pool[b].seen
		})
	}
	rank(pool)
	rungBest := math.Inf(1)
	if len(pool) > 0 {
		rungBest = pool[0].loss
	}
	e.res.Epochs = append(e.res.Epochs, EpochRecord{
		Epoch:                 1,
		BestLoss:              rungBest, // screening loss at the exploration fidelity
		EpochLoss:             rungBest,
		Evaluations:           innerRes.TotalEvaluations,
		CumulativeEvaluations: e.res.TotalEvaluations,
	})

	// Intermediate rungs re-rank the survivors at rising fidelity; the final
	// rung evaluates them fully and is what populates Best. Each promotion
	// keeps the top 1/Eta (at least one), and every rung leaves at least one
	// evaluation for the final rung.
	for r := 1; r < halvingRungs && len(pool) > 0 && !e.done(); r++ {
		final := r == halvingRungs-1
		keep := int(math.Ceil(float64(len(pool)) / halvingEta))
		if keep < 1 {
			keep = 1
		}
		if keep > len(pool) {
			keep = len(pool)
		}
		if !final {
			if left := e.remaining() - 1; keep > left { // reserve the final eval
				keep = left
			}
			if keep < 1 {
				break
			}
		}
		pool = pool[:keep]
		cfgs := make([]knobs.Config, len(pool))
		for i := range pool {
			cfgs[i] = pool[i].cfg
		}
		e.startEpoch()
		losses, _, err := e.evalBatchAt(ctx, cfgs, halvingFidelityAt(r))
		if err != nil {
			return e.res, fmt.Errorf("tuner: halving rung %d: %w", r, err)
		}
		pool = pool[:len(losses)]
		for i := range losses {
			pool[i].loss = losses[i]
		}
		rank(pool)
		rungBest = math.Inf(1)
		if len(pool) > 0 {
			rungBest = pool[0].loss
		}
		if final {
			e.endEpoch(rungBest) // full fidelity: real best-loss record + target check
		} else {
			e.res.Epochs = append(e.res.Epochs, EpochRecord{
				Epoch:                 len(e.res.Epochs) + 1,
				BestLoss:              rungBest, // screening loss at this rung's fidelity
				EpochLoss:             rungBest,
				Evaluations:           len(losses),
				CumulativeEvaluations: e.res.TotalEvaluations,
			})
		}
	}
	return e.res, nil
}
