package tuner

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"micrograd/internal/knobs"
)

// The genetic-algorithm parameters prior work uses: the paper's Table I,
// which the experiments render from these same constants.
const (
	// GAPopulationSize is the number of individuals per generation.
	GAPopulationSize = 50
	// GAMutationRate is the per-gene probability of mutation.
	GAMutationRate = 0.03
	// GACrossoverRate is the probability that two parents are crossed over
	// (1-point crossover at a random position).
	GACrossoverRate = 1.0
	// GAElitism carries the best individual of a generation over unchanged.
	GAElitism = true
	// GATournamentSize is the tournament selection size.
	GATournamentSize = 5
)

// GeneticAlgorithm is the GA tuning baseline used by prior stress-test and
// cloning frameworks. One generation is one tuning epoch; every generation
// evaluates the full population (GAPopulationSize platform evaluations),
// which is the resource-cost asymmetry against GD that the paper quantifies.
type GeneticAlgorithm struct{}

// NewGeneticAlgorithm builds the tuner with Table I's parameters.
func NewGeneticAlgorithm() *GeneticAlgorithm { return &GeneticAlgorithm{} }

// Name implements Tuner.
func (g *GeneticAlgorithm) Name() string { return "genetic-algorithm" }

// individual is one member of the population.
type individual struct {
	cfg  knobs.Config
	loss float64
}

// Run implements Tuner.
func (g *GeneticAlgorithm) Run(ctx context.Context, prob Problem) (Result, error) {
	return runEpochs(ctx, g.Name(), prob, func(_ context.Context, e *engine) (epochStep, error) {
		rng := rand.New(rand.NewSource(prob.Seed))

		// Initial population: random individuals, optionally seeded with the
		// problem's initial configuration.
		pop := make([]individual, GAPopulationSize)
		for i := range pop {
			pop[i] = individual{cfg: prob.Space.RandomConfig(rng), loss: math.NaN()}
		}
		if !prob.Initial.IsZero() {
			pop[0].cfg = prob.Initial.Clone()
		}

		return func(ctx context.Context, e *engine, epoch int) (float64, error) {
			// Evaluate the population (the per-epoch cost of the GA approach).
			// The individuals are independent, so the batch fans out across the
			// evaluator's worker pool; folding results back in population order
			// keeps the run bit-identical to a serial evaluation loop.
			cfgs := make([]knobs.Config, len(pop))
			for i := range pop {
				cfgs[i] = pop[i].cfg
			}
			losses, _, err := e.evalBatch(ctx, cfgs)
			if err != nil {
				return 0, fmt.Errorf("tuner: ga evaluation: %w", err)
			}
			for i := range losses {
				pop[i].loss = losses[i]
			}
			epochLoss := bestOf(pop)

			if epoch == prob.MaxEpochs-1 || e.targetReached() || e.exhausted {
				return epochLoss, nil // no need to breed a generation that will never be evaluated
			}

			// Breed the next generation.
			next := make([]individual, 0, len(pop))
			if GAElitism {
				next = append(next, individual{cfg: e.res.Best.Clone(), loss: math.NaN()})
			}
			for len(next) < len(pop) {
				a := tournament(rng, pop)
				b := tournament(rng, pop)
				childA, childB := a.cfg, b.cfg
				if rng.Float64() < GACrossoverRate {
					childA, childB = crossover(rng, prob.Space, a.cfg, b.cfg)
				}
				next = append(next, individual{cfg: mutate(rng, prob.Space, childA)})
				if len(next) < len(pop) {
					next = append(next, individual{cfg: mutate(rng, prob.Space, childB)})
				}
			}
			pop = next
			return epochLoss, nil
		}, nil
	})
}

// bestOf returns the best loss within a population.
func bestOf(pop []individual) float64 {
	best := math.Inf(1)
	for _, ind := range pop {
		if !math.IsNaN(ind.loss) && ind.loss < best {
			best = ind.loss
		}
	}
	return best
}

// tournament picks the best of GATournamentSize random individuals.
func tournament(rng *rand.Rand, pop []individual) individual {
	best := pop[rng.Intn(len(pop))]
	for i := 1; i < GATournamentSize; i++ {
		cand := pop[rng.Intn(len(pop))]
		if cand.loss < best.loss {
			best = cand
		}
	}
	return best
}

// crossover performs 1-point crossover at a random gene position.
func crossover(rng *rand.Rand, space *knobs.Space, a, b knobs.Config) (knobs.Config, knobs.Config) {
	if space.Len() < 2 {
		return a.Clone(), b.Clone()
	}
	point := 1 + rng.Intn(space.Len()-1)
	ia, ib := a.Indices(), b.Indices()
	ca := make([]int, space.Len())
	cb := make([]int, space.Len())
	copy(ca, ia[:point])
	copy(ca[point:], ib[point:])
	copy(cb, ib[:point])
	copy(cb[point:], ia[point:])
	ra, _ := space.ConfigFromIndices(ca)
	rb, _ := space.ConfigFromIndices(cb)
	return ra, rb
}

// mutate flips each gene to a random value with probability GAMutationRate.
func mutate(rng *rand.Rand, space *knobs.Space, cfg knobs.Config) knobs.Config {
	out := cfg.Clone()
	for k := 0; k < space.Len(); k++ {
		if rng.Float64() < GAMutationRate {
			out = out.WithIndex(k, rng.Intn(space.Def(k).NumValues()))
		}
	}
	return out
}
