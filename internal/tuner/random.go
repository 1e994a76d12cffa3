package tuner

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"micrograd/internal/knobs"
)

// randomEvaluationsPerEpoch is the number of random configurations drawn
// per epoch, GD's 2×knobs+overhead budget, so the two compare at equal cost.
const randomEvaluationsPerEpoch = 20

// RandomSearch is an additional baseline tuner (not part of the paper's
// evaluation, but useful as a sanity reference): it samples configurations
// uniformly at random and keeps the best.
type RandomSearch struct{}

// NewRandomSearch builds the tuner.
func NewRandomSearch() *RandomSearch { return &RandomSearch{} }

// Name implements Tuner.
func (r *RandomSearch) Name() string { return "random-search" }

// Run implements Tuner.
func (r *RandomSearch) Run(ctx context.Context, prob Problem) (Result, error) {
	return runEpochs(ctx, r.Name(), prob, func(_ context.Context, e *engine) (epochStep, error) {
		rng := rand.New(rand.NewSource(prob.Seed))
		return func(ctx context.Context, e *engine, epoch int) (float64, error) {
			// Draw the epoch's samples first (the RNG stream is identical to the
			// serial loop because evaluations consume no randomness), then
			// evaluate them as one batch and fold the results in draw order.
			cfgs := make([]knobs.Config, randomEvaluationsPerEpoch)
			for i := range cfgs {
				cfgs[i] = prob.Space.RandomConfig(rng)
				if !prob.Initial.IsZero() && epoch == 0 && i == 0 {
					cfgs[i] = prob.Initial.Clone()
				}
			}
			losses, _, err := e.evalBatch(ctx, cfgs)
			if err != nil {
				return 0, fmt.Errorf("tuner: random search evaluation: %w", err)
			}
			epochBest := math.Inf(1)
			for _, loss := range losses {
				if loss < epochBest {
					epochBest = loss
				}
			}
			return epochBest, nil
		}, nil
	})
}
