package tuner

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"micrograd/internal/knobs"
)

// The CMA-ES step-size schedule, in normalized coordinates (every knob's
// index range is mapped to [0,1]). The population λ is Hansen's default
// 4+⌊3·ln(n)⌋ for an n-knob space.
const (
	// cmaesInitialSigma is the initial global step size.
	cmaesInitialSigma = 0.3
	// cmaesMinSigma declares convergence once the step size falls below it.
	cmaesMinSigma = 1e-3
)

// CMAES is a separable (diagonal-covariance) CMA-ES tuner. It searches in a
// continuous normalized index space and rounds each sample to the nearest
// knob level — the same continuous-over-discrete treatment the GD tuner
// applies to its step sizes — which makes it the model-based mechanism the
// joint multi-core spaces (3 knobs per core since PR 7) call for: unlike GD
// it learns per-knob scales, and unlike the GA it adapts its sampling
// distribution from every generation.
type CMAES struct{}

// NewCMAES builds the tuner.
func NewCMAES() *CMAES { return &CMAES{} }

// Name implements Tuner.
func (c *CMAES) Name() string { return "cmaes" }

// Run implements Tuner.
func (c *CMAES) Run(ctx context.Context, prob Problem) (Result, error) {
	return runEpochs(ctx, c.Name(), prob, func(_ context.Context, e *engine) (epochStep, error) {
		n := prob.Space.Len()
		nf := float64(n)
		rng := rand.New(rand.NewSource(prob.Seed))

		lambda := 4 + int(3*math.Log(nf))
		mu := lambda / 2

		// Weighted recombination: log-linear weights over the μ best.
		weights := make([]float64, mu)
		wSum := 0.0
		for i := range weights {
			weights[i] = math.Log(float64(mu)+0.5) - math.Log(float64(i+1))
			wSum += weights[i]
		}
		muEff := 0.0
		for i := range weights {
			weights[i] /= wSum
			muEff += weights[i] * weights[i]
		}
		muEff = 1 / muEff

		// Strategy constants (Hansen's defaults; the rank-one/rank-μ learning
		// rates carry the (n+2)/3 speed-up of the separable variant).
		cSigma := (muEff + 2) / (nf + muEff + 5)
		dSigma := 1 + 2*math.Max(0, math.Sqrt((muEff-1)/(nf+1))-1) + cSigma
		cc := (4 + muEff/nf) / (nf + 4 + 2*muEff/nf)
		corr := (nf + 2) / 3
		c1 := corr * 2 / ((nf+1.3)*(nf+1.3) + muEff)
		cMu := math.Min(1-c1, corr*2*(muEff-2+1/muEff)/((nf+2)*(nf+2)+muEff))
		chiN := math.Sqrt(nf) * (1 - 1/(4*nf) + 1/(21*nf*nf))

		// State: mean and diagonal covariance in normalized [0,1]^n
		// coordinates, plus the two evolution paths.
		start := prob.Initial
		if start.IsZero() {
			start = prob.Space.RandomConfig(rng)
		}
		mean := make([]float64, n)
		for k := 0; k < n; k++ {
			if nv := prob.Space.Def(k).NumValues(); nv > 1 {
				mean[k] = float64(start.Index(k)) / float64(nv-1)
			}
		}
		sigma := cmaesInitialSigma
		cov := make([]float64, n)
		for k := range cov {
			cov[k] = 1
		}
		pSigma := make([]float64, n)
		pC := make([]float64, n)

		toConfig := func(x []float64) (knobs.Config, error) {
			idx := make([]int, n)
			for k := range idx {
				nv := prob.Space.Def(k).NumValues()
				idx[k] = int(math.Round(x[k] * float64(nv-1)))
			}
			return prob.Space.ConfigFromIndices(idx)
		}

		return func(ctx context.Context, e *engine, epoch int) (float64, error) {
			// Sample the generation: all random draws happen serially here,
			// then the candidates are evaluated as one batch and ranked by the
			// returned losses — bit-identical whether the evaluator fans out
			// or not. The first generation additionally evaluates the caller's
			// starting point itself (the mean only centers the sampling; every
			// tuner guarantees Problem.Initial is evaluated when set), without
			// feeding it into the distribution update.
			off := 0
			cfgs := make([]knobs.Config, 0, lambda+1)
			if epoch == 0 && !prob.Initial.IsZero() {
				cfgs = append(cfgs, prob.Initial)
				off = 1
			}
			xs := make([][]float64, lambda)
			for i := 0; i < lambda; i++ {
				x := make([]float64, n)
				for k := 0; k < n; k++ {
					x[k] = mean[k] + sigma*math.Sqrt(cov[k])*rng.NormFloat64()
					x[k] = math.Min(1, math.Max(0, x[k]))
				}
				xs[i] = x
				cfg, err := toConfig(x)
				if err != nil {
					return 0, fmt.Errorf("tuner: cmaes sampling: %w", err)
				}
				cfgs = append(cfgs, cfg)
			}
			losses, _, err := e.evalBatch(ctx, cfgs)
			if err != nil {
				return 0, fmt.Errorf("tuner: cmaes evaluation: %w", err)
			}
			if len(losses) == 0 {
				return e.res.BestLoss, nil // budget spent before the epoch began
			}
			epochLoss := losses[0]
			for _, l := range losses[1:] {
				if l < epochLoss {
					epochLoss = l
				}
			}
			if off > len(losses) {
				off = len(losses)
			}
			losses = losses[off:] // the generation; the update ignores Initial
			if len(losses) == 0 {
				return epochLoss, nil
			}

			// Rank the evaluated candidates; ties keep sampling order so the
			// update is deterministic.
			order := make([]int, len(losses))
			for i := range order {
				order[i] = i
			}
			sort.SliceStable(order, func(a, b int) bool {
				return losses[order[a]] < losses[order[b]]
			})

			// Recombine the μ best (renormalizing the weights when the budget
			// truncated the generation below μ).
			m := mu
			if m > len(order) {
				m = len(order)
			}
			wTot := 0.0
			for i := 0; i < m; i++ {
				wTot += weights[i]
			}
			oldMean := append([]float64(nil), mean...)
			for k := 0; k < n; k++ {
				acc := 0.0
				for i := 0; i < m; i++ {
					acc += weights[i] / wTot * xs[order[i]][k]
				}
				mean[k] = acc
			}

			// Cumulative step-size adaptation and covariance update.
			normP := 0.0
			for k := 0; k < n; k++ {
				y := (mean[k] - oldMean[k]) / sigma
				pSigma[k] = (1-cSigma)*pSigma[k] +
					math.Sqrt(cSigma*(2-cSigma)*muEff)*y/math.Sqrt(cov[k])
				normP += pSigma[k] * pSigma[k]
			}
			normP = math.Sqrt(normP)
			hSig := 0.0
			if normP/math.Sqrt(1-math.Pow(1-cSigma, 2*float64(epoch+1))) <
				(1.4+2/(nf+1))*chiN {
				hSig = 1
			}
			for k := 0; k < n; k++ {
				y := (mean[k] - oldMean[k]) / sigma
				pC[k] = (1-cc)*pC[k] + hSig*math.Sqrt(cc*(2-cc)*muEff)*y
				rankMu := 0.0
				for i := 0; i < m; i++ {
					yi := (xs[order[i]][k] - oldMean[k]) / sigma
					rankMu += weights[i] / wTot * yi * yi
				}
				cov[k] = (1-c1-cMu)*cov[k] + c1*pC[k]*pC[k] + cMu*rankMu
				if cov[k] < 1e-8 {
					cov[k] = 1e-8
				}
			}
			sigma *= math.Exp((cSigma / dSigma) * (normP/chiN - 1))
			if sigma > 1 {
				sigma = 1
			}
			if sigma < cmaesMinSigma {
				e.converge() // the sampling distribution has collapsed
			}
			return epochLoss, nil
		}, nil
	})
}
