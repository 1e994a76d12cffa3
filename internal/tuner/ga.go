package tuner

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"micrograd/internal/knobs"
)

// GAParams configures the genetic-algorithm baseline. The defaults are the
// parameters prior work uses (the paper's Table I).
type GAParams struct {
	// PopulationSize is the number of individuals per generation.
	PopulationSize int
	// MutationRate is the per-gene probability of mutation.
	MutationRate float64
	// CrossoverRate is the probability that two parents are crossed over
	// (Table I: 100%, 1-point crossover at a random position).
	CrossoverRate float64
	// Elitism carries the best individual of a generation over unchanged.
	Elitism bool
	// TournamentSize is the tournament selection size.
	TournamentSize int
}

// DefaultGAParams returns the paper's Table I parameters.
func DefaultGAParams() GAParams {
	return GAParams{
		PopulationSize: 50,
		MutationRate:   0.03,
		CrossoverRate:  1.0,
		Elitism:        true,
		TournamentSize: 5,
	}
}

// normalized fills zero fields with defaults.
func (p GAParams) normalized() GAParams {
	d := DefaultGAParams()
	if p.PopulationSize <= 1 {
		p.PopulationSize = d.PopulationSize
	}
	if p.MutationRate <= 0 || p.MutationRate > 1 {
		p.MutationRate = d.MutationRate
	}
	if p.CrossoverRate <= 0 || p.CrossoverRate > 1 {
		p.CrossoverRate = d.CrossoverRate
	}
	if p.TournamentSize <= 0 {
		p.TournamentSize = d.TournamentSize
	}
	if p.TournamentSize > p.PopulationSize {
		p.TournamentSize = p.PopulationSize
	}
	return p
}

// GeneticAlgorithm is the GA tuning baseline used by prior stress-test and
// cloning frameworks. One generation is one tuning epoch; every generation
// evaluates the full population (PopulationSize platform evaluations), which
// is the resource-cost asymmetry against GD that the paper quantifies.
type GeneticAlgorithm struct {
	params GAParams
}

// NewGeneticAlgorithm builds the tuner; zero-valued params take Table I
// defaults.
func NewGeneticAlgorithm(params GAParams) *GeneticAlgorithm {
	return &GeneticAlgorithm{params: params.normalized()}
}

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
		pop := make([]individual, g.params.PopulationSize)
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
			if g.params.Elitism {
				next = append(next, individual{cfg: e.res.Best.Clone(), loss: math.NaN()})
			}
			for len(next) < len(pop) {
				a := g.tournament(rng, pop)
				b := g.tournament(rng, pop)
				childA, childB := a.cfg, b.cfg
				if rng.Float64() < g.params.CrossoverRate {
					childA, childB = crossover(rng, prob.Space, a.cfg, b.cfg)
				}
				next = append(next, individual{cfg: g.mutate(rng, prob.Space, childA)})
				if len(next) < len(pop) {
					next = append(next, individual{cfg: g.mutate(rng, prob.Space, childB)})
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

// tournament picks the best of TournamentSize random individuals.
func (g *GeneticAlgorithm) tournament(rng *rand.Rand, pop []individual) individual {
	best := pop[rng.Intn(len(pop))]
	for i := 1; i < g.params.TournamentSize; i++ {
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

// mutate flips each gene to a random value with probability MutationRate.
func (g *GeneticAlgorithm) mutate(rng *rand.Rand, space *knobs.Space, cfg knobs.Config) knobs.Config {
	out := cfg.Clone()
	for k := 0; k < space.Len(); k++ {
		if rng.Float64() < g.params.MutationRate {
			out = out.WithIndex(k, rng.Intn(space.Def(k).NumValues()))
		}
	}
	return out
}
