package tuner

import (
	"context"
	"fmt"
	"math/rand"

	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
)

// BruteForceParams configures the brute-force reference search used to
// establish the "optimal worst case" lines of the paper's Figs. 5-6.
type BruteForceParams struct {
	// MaxEvaluations caps the total number of configurations evaluated. When
	// the full space fits within the cap it is enumerated exhaustively;
	// otherwise the search enumerates a regular lattice (every knob
	// restricted to a coarse subset of its indices, always including the
	// extremes) and spends the remaining budget on uniform random sampling.
	MaxEvaluations int
	// LatticePointsPerKnob is the number of indices kept per knob when the
	// full space does not fit in the budget (extremes always included).
	LatticePointsPerKnob int
	// ReportEvery groups the progression into pseudo-epochs of this many
	// evaluations so the result can be plotted against the tuners' epochs.
	ReportEvery int
}

// DefaultBruteForceParams returns a budget suitable for the built-in spaces.
func DefaultBruteForceParams() BruteForceParams {
	return BruteForceParams{
		MaxEvaluations:       4096,
		LatticePointsPerKnob: 2,
		ReportEvery:          256,
	}
}

// normalized fills zero fields with defaults.
func (p BruteForceParams) normalized() BruteForceParams {
	d := DefaultBruteForceParams()
	if p.MaxEvaluations <= 0 {
		p.MaxEvaluations = d.MaxEvaluations
	}
	if p.LatticePointsPerKnob < 2 {
		p.LatticePointsPerKnob = d.LatticePointsPerKnob
	}
	if p.ReportEvery <= 0 {
		p.ReportEvery = d.ReportEvery
	}
	return p
}

// BruteForce exhaustively explores the knob space (or a coarse lattice of it
// plus random refinement when the space is too large) and returns the best
// configuration found. It is not a practical tuning mechanism — its role is
// to approximate the true optimum that the GD and GA tuners are measured
// against.
type BruteForce struct {
	params BruteForceParams
}

// NewBruteForce builds the search; zero-valued params take defaults.
func NewBruteForce(params BruteForceParams) *BruteForce {
	return &BruteForce{params: params.normalized()}
}

// Name implements Tuner.
func (b *BruteForce) Name() string { return "brute-force" }

// Run implements Tuner. MaxEpochs is ignored (the budget is
// MaxEvaluations, further capped by Problem.MaxEvaluations when set); the
// epoch records group evaluations into pseudo-epochs of ReportEvery
// evaluations. Unlike the epoch-driven tuners it runs directly on the engine
// primitives: every phase generates its candidate list up front, evaluates it
// as one batch (fanned out when the evaluator supports it) and folds the
// results in generation order, so the accumulated state — best-so-far,
// evaluation counter, pseudo-epoch records — is bit-identical to the serial
// sweep.
func (b *BruteForce) Run(ctx context.Context, prob Problem) (Result, error) {
	e, err := newEngine(b.Name(), prob)
	if err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(prob.Seed))

	// Pseudo-epoch records are emitted at exact evaluation counts through the
	// engine's fold hook.
	e.onFold = func(_ knobs.Config, loss float64, _ metrics.Vector) {
		if e.res.TotalEvaluations%b.params.ReportEvery == 0 {
			e.appendRecord(loss, b.params.ReportEvery)
		}
	}
	evalChunk := func(cfgs []knobs.Config) error {
		_, _, err := e.evalBatch(ctx, cfgs)
		return err
	}
	// stop is checked between phases: the target loss or the problem's own
	// evaluation budget ends the sweep early.
	stop := func() bool {
		if e.targetReached() {
			e.res.Converged = true
		}
		return e.done()
	}

	finish := func() (Result, error) {
		e.res.Converged = true
		//lint:allow floateq identity check of a copied value, not a numeric comparison
		if n := len(e.res.Epochs); n == 0 || e.res.Epochs[n-1].BestLoss != e.res.BestLoss {
			e.appendRecord(e.res.BestLoss, e.res.TotalEvaluations%b.params.ReportEvery)
		}
		return e.res, nil
	}

	// The problem's starting point, when given, is evaluated first so the
	// sweep can only improve on it.
	if !prob.Initial.IsZero() {
		if err := evalChunk([]knobs.Config{prob.Initial.Clone()}); err != nil {
			return e.res, fmt.Errorf("tuner: brute force initial: %w", err)
		}
		if stop() {
			return finish()
		}
	}

	// Choose the per-knob index sets and enumerate the lattice
	// (odometer-style) up to the evaluation budget.
	indexSets := b.indexSets(prob.Space)
	counters := make([]int, prob.Space.Len())
	var lattice []knobs.Config
	done := false
	for !done && len(lattice) < b.params.MaxEvaluations {
		idx := make([]int, prob.Space.Len())
		for k := range idx {
			idx[k] = indexSets[k][counters[k]]
		}
		cfg, err := prob.Space.ConfigFromIndices(idx)
		if err != nil {
			return e.res, fmt.Errorf("tuner: brute force lattice: %w", err)
		}
		lattice = append(lattice, cfg)
		// Advance the odometer.
		done = true
		for k := 0; k < len(counters); k++ {
			counters[k]++
			if counters[k] < len(indexSets[k]) {
				done = false
				break
			}
			counters[k] = 0
		}
	}
	if err := evalChunk(lattice); err != nil {
		return e.res, fmt.Errorf("tuner: brute force evaluation: %w", err)
	}
	if stop() {
		return finish()
	}

	// Random refinement with half of the remaining budget. The samples are
	// drawn serially from the seeded RNG (evaluations consume no randomness)
	// and then evaluated as one batch.
	randomBudget := (b.params.MaxEvaluations - e.res.TotalEvaluations) / 2
	if randomBudget > 0 {
		samples := make([]knobs.Config, randomBudget)
		for i := range samples {
			samples[i] = prob.Space.RandomConfig(rng)
		}
		if err := evalChunk(samples); err != nil {
			return e.res, fmt.Errorf("tuner: brute force sampling: %w", err)
		}
		if stop() {
			return finish()
		}
	}

	// Greedy coordinate-descent refinement from the best point found: the
	// lattice restricts each knob to a coarse subset, so a local polish is
	// needed for the result to serve as the reference optimum the paper's
	// "brute force over the workload space" provides. Each sweep perturbs
	// every knob of a fixed base configuration by ±1, so a sweep is one
	// batch; the sweep improved iff the best loss dropped across it. The
	// final pass is allowed to finish even if it slightly overruns the
	// evaluation budget (the problem's own MaxEvaluations, when set, is still
	// enforced exactly by the engine).
	improved := true
	for improved && e.res.TotalEvaluations < b.params.MaxEvaluations+2*prob.Space.Len() {
		if err := ctx.Err(); err != nil {
			return e.res, err
		}
		base := e.res.Best.Clone()
		beforeSweep := e.res.BestLoss
		var sweep []knobs.Config
		for k := 0; k < prob.Space.Len(); k++ {
			for _, delta := range []int{-1, 1} {
				cand := base.Step(k, delta)
				if cand.Equal(base) {
					continue
				}
				sweep = append(sweep, cand)
			}
		}
		if err := evalChunk(sweep); err != nil {
			return e.res, fmt.Errorf("tuner: brute force refinement: %w", err)
		}
		improved = e.res.BestLoss < beforeSweep
		if stop() {
			return finish()
		}
	}
	return finish()
}

// indexSets returns, per knob, the indices enumerated by the lattice sweep.
// When the whole space fits inside the evaluation budget every index is
// kept; otherwise each knob is reduced to LatticePointsPerKnob indices spread
// across its range (extremes always included).
func (b *BruteForce) indexSets(space *knobs.Space) [][]int {
	full := space.Size() <= int64(b.params.MaxEvaluations)
	sets := make([][]int, space.Len())
	for k := 0; k < space.Len(); k++ {
		n := space.Def(k).NumValues()
		if full || n <= b.params.LatticePointsPerKnob {
			all := make([]int, n)
			for i := range all {
				all[i] = i
			}
			sets[k] = all
			continue
		}
		points := b.params.LatticePointsPerKnob
		set := make([]int, 0, points)
		for i := 0; i < points; i++ {
			idx := i * (n - 1) / (points - 1)
			if len(set) == 0 || set[len(set)-1] != idx {
				set = append(set, idx)
			}
		}
		sets[k] = set
	}
	return sets
}
