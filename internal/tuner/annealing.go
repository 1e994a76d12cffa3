package tuner

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"micrograd/internal/knobs"
)

// SAParams configures the simulated-annealing tuner, an additional baseline
// beyond the paper's GD/GA comparison. It is useful as a sanity point between
// random search (temperature → ∞) and greedy hill climbing (temperature → 0),
// and it plugs into the framework exactly like the other mechanisms — the
// modularity property the paper emphasizes.
type SAParams struct {
	// MovesPerEpoch is the number of candidate moves evaluated per epoch.
	// The default matches GD's ~2×knobs budget so the mechanisms can be
	// compared at equal per-epoch cost.
	MovesPerEpoch int
	// InitialTemperature scales the acceptance probability of worsening
	// moves at epoch 0.
	InitialTemperature float64
	// CoolingRate multiplies the temperature after every epoch.
	CoolingRate float64
	// MaxKnobsPerMove is the maximum number of knobs perturbed in one move.
	MaxKnobsPerMove int
}

// DefaultSAParams returns a reasonable default parameterization.
func DefaultSAParams() SAParams {
	return SAParams{
		MovesPerEpoch:      20,
		InitialTemperature: 1.0,
		CoolingRate:        0.9,
		MaxKnobsPerMove:    2,
	}
}

// normalized fills zero fields with defaults.
func (p SAParams) normalized() SAParams {
	d := DefaultSAParams()
	if p.MovesPerEpoch <= 0 {
		p.MovesPerEpoch = d.MovesPerEpoch
	}
	if p.InitialTemperature <= 0 {
		p.InitialTemperature = d.InitialTemperature
	}
	if p.CoolingRate <= 0 || p.CoolingRate >= 1 {
		p.CoolingRate = d.CoolingRate
	}
	if p.MaxKnobsPerMove <= 0 {
		p.MaxKnobsPerMove = d.MaxKnobsPerMove
	}
	return p
}

// SimulatedAnnealing is a single-candidate stochastic local search with a
// temperature-controlled acceptance criterion.
type SimulatedAnnealing struct {
	params SAParams
}

// NewSimulatedAnnealing builds the tuner; zero-valued params take defaults.
func NewSimulatedAnnealing(params SAParams) *SimulatedAnnealing {
	return &SimulatedAnnealing{params: params.normalized()}
}

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
		temperature := s.params.InitialTemperature
		return func(ctx context.Context, e *engine, epoch int) (float64, error) {
			epochBest := currentLoss
			for move := 0; move < s.params.MovesPerEpoch; move++ {
				cand := s.neighbour(rng, prob.Space, current)
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
			temperature *= s.params.CoolingRate
			return epochBest, nil
		}, nil
	})
}

// neighbour perturbs up to MaxKnobsPerMove random knobs by ±1 index.
func (s *SimulatedAnnealing) neighbour(rng *rand.Rand, space *knobs.Space, cfg knobs.Config) knobs.Config {
	out := cfg.Clone()
	moves := 1 + rng.Intn(s.params.MaxKnobsPerMove)
	for i := 0; i < moves; i++ {
		k := rng.Intn(space.Len())
		delta := 1
		if rng.Intn(2) == 0 {
			delta = -1
		}
		out = out.Step(k, delta)
	}
	return out
}
