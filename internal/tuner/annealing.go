package tuner

import (
	"context"
	"fmt"
	"math"
	"math/rand"
)

// The simulated-annealing schedule.
const (
	// saMovesPerEpoch is the number of candidate moves evaluated per epoch,
	// GD's ~2×knobs budget, so the mechanisms compare at equal per-epoch
	// cost.
	saMovesPerEpoch = 20
	// saInitialTemperature scales the acceptance probability of worsening
	// moves at epoch 0.
	saInitialTemperature = 1.0
	// saCoolingRate multiplies the temperature after every epoch.
	saCoolingRate = 0.9
)

// SimulatedAnnealing is a single-candidate stochastic local search with a
// temperature-controlled acceptance criterion, an additional baseline beyond
// the paper's GD/GA comparison. It is a sanity point between random search
// (temperature → ∞) and greedy hill climbing (temperature → 0), and it plugs
// into the framework exactly like the other mechanisms — the modularity
// property the paper emphasizes. Each move nudges one or two random knobs by
// ±1 index, GD's stochastic escape.
type SimulatedAnnealing struct{}

// NewSimulatedAnnealing builds the tuner.
func NewSimulatedAnnealing() *SimulatedAnnealing { return &SimulatedAnnealing{} }

// Name implements Tuner.
func (s *SimulatedAnnealing) Name() string { return "simulated-annealing" }

// Run implements Tuner.
func (s *SimulatedAnnealing) Run(ctx context.Context, prob Problem) (Result, error) {
	return runEpochs(ctx, s.Name(), prob, func(ctx context.Context, e *engine) (epochStep, error) {
		rng := rand.New(rand.NewSource(prob.Seed))
		current := prob.Initial
		if current.IsZero() {
			current = prob.Space.RandomConfig(rng)
		}
		// The starting point is evaluated before the first epoch (its cost is
		// not attributed to any epoch record, matching the historical
		// accounting).
		currentLoss, _, ok, err := e.evalOne(ctx, current)
		if err != nil {
			return nil, fmt.Errorf("tuner: sa initial evaluation: %w", err)
		}
		if !ok {
			currentLoss = math.Inf(1)
		}
		temperature := saInitialTemperature
		return func(ctx context.Context, e *engine, epoch int) (float64, error) {
			epochBest := currentLoss
			for move := 0; move < saMovesPerEpoch; move++ {
				cand := perturb(rng, current)
				candLoss, _, ok, err := e.evalOne(ctx, cand)
				if err != nil {
					return 0, fmt.Errorf("tuner: sa move evaluation: %w", err)
				}
				if !ok {
					break // budget spent mid-epoch
				}
				if candLoss < epochBest {
					epochBest = candLoss
				}
				// Metropolis acceptance: always accept improvements; accept
				// worsening moves with probability exp(-Δ/T).
				delta := candLoss - currentLoss
				if delta <= 0 || rng.Float64() < math.Exp(-delta/math.Max(temperature, 1e-9)) {
					current = cand
					currentLoss = candLoss
				}
			}
			temperature *= saCoolingRate
			return epochBest, nil
		}, nil
	})
}
