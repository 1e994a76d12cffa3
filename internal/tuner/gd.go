package tuner

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"micrograd/internal/knobs"
)

// The gradient-descent schedule of §III-D of the paper: ±δ gradient checks
// per knob (2×knobs evaluations per epoch) and a step size that shrinks
// linearly over the first gdStepDecayEpochs epochs.
const (
	// gdDelta is the index perturbation used for gradient checks.
	gdDelta = 1
	// gdInitialStep and gdFinalStep bound the adaptive step size (index
	// units).
	gdInitialStep = 3.0
	gdFinalStep   = 1.0
	// gdStepDecayEpochs is the number of epochs over which the step size
	// decays from gdInitialStep to gdFinalStep.
	gdStepDecayEpochs = 15
	// gdSkipProb is the probability that a knob skips its gradient check in
	// an epoch. The paper's stochastic skipping (0.25, decaying ×0.9 per
	// epoch) has never been enabled here. Every knob still draws its skip
	// decision from the tuner's RNG, because perturb draws from the same
	// stream: dropping the draw would change every gradient-descent run.
	gdSkipProb = 0.0
	// gdStallEpochs is the number of consecutive epochs without
	// configuration movement after which the search is declared converged.
	gdStallEpochs = 8
)

// gdStepAt returns the step size for a (0-based) epoch.
func gdStepAt(epoch int) float64 {
	if epoch >= gdStepDecayEpochs {
		return gdFinalStep
	}
	frac := float64(epoch) / float64(gdStepDecayEpochs)
	return gdInitialStep + (gdFinalStep-gdInitialStep)*frac
}

// GradientDescent is the paper's gradient-descent tuning mechanism
// (Listing 3).
type GradientDescent struct{}

// NewGradientDescent builds the tuner.
func NewGradientDescent() *GradientDescent { return &GradientDescent{} }

// Name implements Tuner.
func (g *GradientDescent) Name() string { return "gradient-descent" }

// Run implements Tuner.
func (g *GradientDescent) Run(ctx context.Context, prob Problem) (Result, error) {
	return runEpochs(ctx, g.Name(), prob, func(_ context.Context, e *engine) (epochStep, error) {
		rng := rand.New(rand.NewSource(prob.Seed))
		current := prob.Initial
		if current.IsZero() {
			current = prob.Space.RandomConfig(rng)
		}
		stall := 0
		return func(ctx context.Context, e *engine, epoch int) (float64, error) {
			step := gdStepAt(epoch)

			// 1. Measure the base configuration.
			baseLoss, _, ok, err := e.evalOne(ctx, current)
			if err != nil {
				return 0, fmt.Errorf("tuner: gd base evaluation: %w", err)
			}
			if !ok {
				return e.res.BestLoss, nil // budget spent before the epoch began
			}

			// 2. Gradient checks: perturb every (non-skipped) knob by ±δ. The
			// skip decisions are drawn first — in knob order, exactly as the
			// serial loop drew them — and the 2×knobs probe evaluations are then
			// independent, so they run as one batch; results are folded back in
			// knob order, keeping the RNG stream and the accumulated state
			// bit-identical to the serial path.
			grads := make([]float64, prob.Space.Len())
			probed := make([]int, 0, prob.Space.Len())
			probes := make([]knobs.Config, 0, 2*prob.Space.Len())
			for k := 0; k < prob.Space.Len(); k++ {
				if rng.Float64() < gdSkipProb {
					continue // stochastically skipped this epoch
				}
				probed = append(probed, k)
				probes = append(probes, current.Step(k, gdDelta), current.Step(k, -gdDelta))
			}
			probeLosses, _, err := e.evalBatch(ctx, probes)
			if err != nil {
				return 0, fmt.Errorf("tuner: gd gradient check: %w", err)
			}
			for j, k := range probed {
				if 2*j+1 >= len(probeLosses) {
					break // budget cut the probe batch short
				}
				plus, minus := probes[2*j], probes[2*j+1]
				span := float64(plus.Index(k) - minus.Index(k))
				if span != 0 {
					grads[k] = (probeLosses[2*j] - probeLosses[2*j+1]) / span
				}
			}

			// 3. Build candidate moves along the descent direction: the full
			// proportional move (steepest knob moves one step, the rest move a
			// fraction of it), a half-step variant (adaptive step size), and a
			// conservative move of only the steepest knob, which is robust when
			// the joint move overshoots on a noisy or strongly-curved landscape.
			maxAbs := 0.0
			steepest := -1
			for k, gk := range grads {
				if a := math.Abs(gk); a > maxAbs {
					maxAbs = a
					steepest = k
				}
			}
			var candidates []knobs.Config
			if maxAbs > 0 {
				scaled := func(scale float64) knobs.Config {
					out := current.Clone()
					for k, gk := range grads {
						move := int(math.Round(-scale * step * gk / maxAbs))
						if move != 0 {
							out = out.Step(k, move)
						}
					}
					return out
				}
				candidates = append(candidates, scaled(1))
				candidates = append(candidates, scaled(0.5))
				single := current.Clone()
				dir := -1
				if grads[steepest] < 0 {
					dir = 1
				}
				move := dir * int(math.Max(1, math.Round(step)))
				candidates = append(candidates, single.Step(steepest, move))
			}

			// 4. Evaluate the (distinct) candidates — batched, folded in
			// candidate order — and accept the best one if it improves on the
			// base configuration.
			epochLoss := baseLoss
			bestCandLoss := math.Inf(1)
			var bestCand knobs.Config
			seen := map[string]bool{current.Key(): true}
			distinct := make([]knobs.Config, 0, len(candidates))
			for _, cand := range candidates {
				if seen[cand.Key()] {
					continue
				}
				seen[cand.Key()] = true
				distinct = append(distinct, cand)
			}
			candLosses, _, err := e.evalBatch(ctx, distinct)
			if err != nil {
				return 0, fmt.Errorf("tuner: gd step evaluation: %w", err)
			}
			for i := range candLosses {
				if better(candLosses[i], bestCandLoss) {
					bestCandLoss = candLosses[i]
					bestCand = distinct[i]
				}
			}
			if !bestCand.IsZero() && better(bestCandLoss, baseLoss) {
				current = bestCand
				epochLoss = bestCandLoss
				stall = 0
			} else {
				// No improvement: restart the next epoch from the best
				// configuration seen so far, perturbed in a couple of random
				// knobs. This is the stochastic escape behaviour the paper
				// describes for leaving local minima and plateaus.
				current = perturb(rng, e.res.Best)
				epochLoss = e.res.BestLoss
				stall++
			}

			// 5. Termination beyond the shared target/budget checks: the
			// search stalled for several consecutive epochs despite the
			// stochastic escapes.
			if stall >= gdStallEpochs {
				e.converge()
			}
			return epochLoss, nil
		}, nil
	})
}

// perturb returns a copy of cfg with one or two random knobs nudged by ±1
// index. It is the stochastic escape applied when an epoch fails to improve.
func perturb(rng *rand.Rand, cfg knobs.Config) knobs.Config {
	if cfg.IsZero() {
		return cfg
	}
	out := cfg.Clone()
	moves := 1 + rng.Intn(2)
	for i := 0; i < moves; i++ {
		k := rng.Intn(cfg.Len())
		delta := 1
		if rng.Intn(2) == 0 {
			delta = -1
		}
		out = out.Step(k, delta)
	}
	return out
}
