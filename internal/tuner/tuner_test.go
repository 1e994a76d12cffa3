package tuner

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
)

// quadraticProblem builds a cheap synthetic tuning problem: the loss is the
// squared index-space distance to a hidden target configuration. It exercises
// the optimizers without paying for the simulator.
func quadraticProblem(space *knobs.Space, target knobs.Config, maxEpochs int, seed int64) Problem {
	eval := blind(func(cfg knobs.Config) (metrics.Vector, error) {
		d := 0.0
		for k := 0; k < space.Len(); k++ {
			diff := float64(cfg.Index(k) - target.Index(k))
			d += diff * diff
		}
		return metrics.Vector{"distance": d}, nil
	})
	return Problem{
		Space:      space,
		Loss:       metrics.StressLoss{Metric: "distance"},
		Evaluator:  eval,
		MaxEpochs:  maxEpochs,
		TargetLoss: 0,
		Seed:       seed,
	}
}

func TestProblemValidate(t *testing.T) {
	space := knobs.InstructionOnlySpace()
	good := quadraticProblem(space, space.MidConfig(), 10, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(p *Problem){
		func(p *Problem) { p.Space = nil },
		func(p *Problem) { p.Loss = nil },
		func(p *Problem) { p.Evaluator = nil },
		func(p *Problem) { p.MaxEpochs = 0 },
		func(p *Problem) { p.Initial = knobs.DefaultSpace().MidConfig() },
	}
	for i, mutate := range cases {
		p := quadraticProblem(space, space.MidConfig(), 10, 1)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestCountingAndMemoizingEvaluators(t *testing.T) {
	space := knobs.InstructionOnlySpace()
	calls := 0
	raw := blind(func(cfg knobs.Config) (metrics.Vector, error) {
		calls++
		return metrics.Vector{"x": float64(cfg.Index(0))}, nil
	})
	memo := NewSharedMemoizingEvaluator(raw, nil, sharedKeyer)

	a := space.MidConfig()
	if _, err := evalSingle(memo, a); err != nil {
		t.Fatal(err)
	}
	if _, err := evalSingle(memo, a); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || memo.Misses() != 1 {
		t.Errorf("memoization failed: raw calls %d, misses %d", calls, memo.Misses())
	}
	if memo.group.Len() != 1 {
		t.Errorf("cache size = %d", memo.group.Len())
	}
	b := a.WithIndex(0, a.Index(0)+1)
	if _, err := evalSingle(memo, b); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("distinct config should miss the cache, calls=%d", calls)
	}
	if memo.Misses() != 2 {
		t.Errorf("memo misses = %d, want 2", memo.Misses())
	}
	// Cached results must not alias.
	v, _ := evalSingle(memo, a)
	v["x"] = 999
	v2, _ := evalSingle(memo, a)
	if v2["x"] == 999 {
		t.Error("memoized vector aliased caller mutation")
	}
}

func TestMemoizingEvaluatorPropagatesErrors(t *testing.T) {
	sentinel := errors.New("boom")
	memo := NewSharedMemoizingEvaluator(blind(func(knobs.Config) (metrics.Vector, error) {
		return nil, sentinel
	}), nil, sharedKeyer)
	if _, err := evalSingle(memo, knobs.InstructionOnlySpace().MidConfig()); !errors.Is(err, sentinel) {
		t.Error("error not propagated")
	}
}

func TestGDFindsQuadraticOptimum(t *testing.T) {
	space := knobs.InstructionOnlySpace()
	target := space.RandomConfig(rand.New(rand.NewSource(3)))
	prob := quadraticProblem(space, target, 60, 17)
	gd := NewGradientDescent()
	res, err := gd.Run(context.Background(), prob)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestLoss > 2 {
		t.Errorf("GD best loss %v; expected near-zero distance to target", res.BestLoss)
	}
	if res.TotalEvaluations == 0 || len(res.Epochs) == 0 {
		t.Error("missing accounting")
	}
	if res.Tuner != "gradient-descent" {
		t.Error("result not labelled")
	}
	// Best loss must be non-increasing across epochs.
	for i := 1; i < len(res.Epochs); i++ {
		if res.Epochs[i].BestLoss > res.Epochs[i-1].BestLoss+1e-12 {
			t.Errorf("best loss increased at epoch %d", i+1)
		}
	}
}

func TestGDEvaluationsPerEpochNearTwoTimesKnobs(t *testing.T) {
	space := knobs.InstructionOnlySpace()
	target := space.MidConfig()
	prob := quadraticProblem(space, target, 10, 5)
	prob.TargetLoss = NoTargetLoss
	gd := NewGradientDescent()
	res, err := gd.Run(context.Background(), prob)
	if err != nil {
		t.Fatal(err)
	}
	perEpoch := float64(res.TotalEvaluations) / float64(len(res.Epochs))
	// 2*knobs gradient checks + base + step evaluations; must stay well
	// below the GA's 50 per epoch.
	if perEpoch < float64(2*space.Len()) || perEpoch > float64(2*space.Len()+4) {
		t.Errorf("GD evaluations per epoch = %.1f, want about %d", perEpoch, 2*space.Len())
	}
}

func TestGDRespectsTargetLossAndConverges(t *testing.T) {
	space := knobs.InstructionOnlySpace()
	target := space.MidConfig()
	prob := quadraticProblem(space, target, 100, 7)
	prob.Initial = target.Clone() // start at the optimum
	gd := NewGradientDescent()
	res, err := gd.Run(context.Background(), prob)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("starting at the optimum should converge immediately")
	}
	if len(res.Epochs) > 3 {
		t.Errorf("converged run used %d epochs", len(res.Epochs))
	}
	if res.BestLoss != 0 {
		t.Errorf("best loss %v, want 0", res.BestLoss)
	}
}

func TestGDContextCancellation(t *testing.T) {
	space := knobs.InstructionOnlySpace()
	prob := quadraticProblem(space, space.MidConfig(), 1000, 1)
	prob.TargetLoss = NoTargetLoss
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewGradientDescent().Run(ctx, prob); err == nil {
		t.Error("cancelled context should abort the run")
	}
	if _, err := NewGeneticAlgorithm().Run(ctx, prob); err == nil {
		t.Error("cancelled context should abort the GA run")
	}
	if _, err := NewBruteForce(registryBruteForceEvaluations).Run(ctx, prob); err == nil {
		t.Error("cancelled context should abort the brute force run")
	}
	if _, err := NewRandomSearch().Run(ctx, prob); err == nil {
		t.Error("cancelled context should abort the random search run")
	}
}

func TestGDErrorPropagation(t *testing.T) {
	space := knobs.InstructionOnlySpace()
	prob := quadraticProblem(space, space.MidConfig(), 10, 1)
	prob.Evaluator = blind(func(knobs.Config) (metrics.Vector, error) {
		return nil, errors.New("platform exploded")
	})
	if _, err := NewGradientDescent().Run(context.Background(), prob); err == nil {
		t.Error("evaluator error should propagate")
	}
	if _, err := NewGeneticAlgorithm().Run(context.Background(), prob); err == nil {
		t.Error("evaluator error should propagate from GA")
	}
}

func TestGDParamsSchedules(t *testing.T) {
	if gdStepAt(0) != gdInitialStep {
		t.Error("initial step wrong")
	}
	if gdStepAt(gdStepDecayEpochs+5) != gdFinalStep {
		t.Error("final step wrong")
	}
	if gdStepAt(5) > gdStepAt(0) || gdStepAt(10) > gdStepAt(5) {
		t.Error("step size should be non-increasing")
	}
}

func TestGAFindsGoodSolution(t *testing.T) {
	space := knobs.InstructionOnlySpace()
	target := space.RandomConfig(rand.New(rand.NewSource(11)))
	prob := quadraticProblem(space, target, 30, 23)
	ga := NewGeneticAlgorithm()
	res, err := ga.Run(context.Background(), prob)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestLoss > 30 {
		t.Errorf("GA best loss %v too high", res.BestLoss)
	}
	if res.Tuner != "genetic-algorithm" {
		t.Error("result not labelled")
	}
	for i := 1; i < len(res.Epochs); i++ {
		if res.Epochs[i].BestLoss > res.Epochs[i-1].BestLoss+1e-12 {
			t.Errorf("GA best loss increased at epoch %d", i+1)
		}
	}
}

func TestGAEvaluationsPerEpochEqualsPopulation(t *testing.T) {
	space := knobs.InstructionOnlySpace()
	prob := quadraticProblem(space, space.MidConfig(), 5, 3)
	prob.TargetLoss = NoTargetLoss
	ga := NewGeneticAlgorithm()
	res, err := ga.Run(context.Background(), prob)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.TotalEvaluations, len(res.Epochs)*GAPopulationSize; got != want {
		t.Errorf("GA evaluated %d candidates in %d epochs, want %d (one population per epoch)", got, len(res.Epochs), want)
	}
}

func TestGDUsesFewerEvaluationsThanGA(t *testing.T) {
	// The paper's resource claim: a GD epoch costs ~2×knobs evaluations vs
	// the GA's population size (50), i.e. roughly 2.5× less for 10 knobs.
	space := knobs.InstructionOnlySpace()
	target := space.RandomConfig(rand.New(rand.NewSource(2)))
	epochs := 10
	gdRes, err := NewGradientDescent().Run(context.Background(),
		quadraticProblem(space, target, epochs, 5))
	if err != nil {
		t.Fatal(err)
	}
	gaProb := quadraticProblem(space, target, epochs, 5)
	gaProb.TargetLoss = NoTargetLoss
	gaRes, err := NewGeneticAlgorithm().Run(context.Background(), gaProb)
	if err != nil {
		t.Fatal(err)
	}
	gdPerEpoch := float64(gdRes.TotalEvaluations) / float64(len(gdRes.Epochs))
	gaPerEpoch := float64(gaRes.TotalEvaluations) / float64(len(gaRes.Epochs))
	if gdPerEpoch >= gaPerEpoch {
		t.Errorf("GD per-epoch cost %.1f should be below GA %.1f", gdPerEpoch, gaPerEpoch)
	}
	ratio := gaPerEpoch / gdPerEpoch
	if ratio < 1.5 {
		t.Errorf("GA/GD evaluation ratio %.2f, expected >= 1.5 (paper reports up to 2.5x)", ratio)
	}
}

func TestDefaultGAParamsMatchTableI(t *testing.T) {
	if GAPopulationSize != 50 || GAMutationRate != 0.03 || GACrossoverRate != 1.0 ||
		!GAElitism || GATournamentSize != 5 {
		t.Error("GA parameters do not match Table I")
	}
}

// TestGAKeepsBestIndividual checks Table I's elitism: the best individual
// of every generation is carried into the next unchanged, so on a rugged
// landscape the best loss within each generation still never worsens.
func TestGAKeepsBestIndividual(t *testing.T) {
	const generations = 8
	for seed := int64(1); seed <= 10; seed++ {
		res, err := NewGeneticAlgorithm().Run(context.Background(), Problem{
			Space:          knobs.DefaultSpace(),
			Loss:           metrics.StressLoss{Metric: "score"},
			Evaluator:      blind(bumpyEval),
			MaxEpochs:      generations,
			MaxEvaluations: generations * GAPopulationSize,
			TargetLoss:     NoTargetLoss,
			Seed:           seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Epochs) != generations {
			t.Fatalf("seed %d: GA ran %d generations, want %d", seed, len(res.Epochs), generations)
		}
		for i := 1; i < len(res.Epochs); i++ {
			if prev, cur := res.Epochs[i-1].EpochLoss, res.Epochs[i].EpochLoss; cur > prev {
				t.Errorf("seed %d: generation %d's best loss %v is worse than generation %d's %v", seed, i+1, cur, i, prev)
			}
		}
	}
}

func TestCrossoverPreservesGenes(t *testing.T) {
	space := knobs.DefaultSpace()
	rng := rand.New(rand.NewSource(5))
	f := func(seedA, seedB int64) bool {
		a := space.RandomConfig(rand.New(rand.NewSource(seedA)))
		b := space.RandomConfig(rand.New(rand.NewSource(seedB)))
		ca, cb := crossover(rng, space, a, b)
		for k := 0; k < space.Len(); k++ {
			// Every child gene must come from one of the parents at the same
			// position.
			if ca.Index(k) != a.Index(k) && ca.Index(k) != b.Index(k) {
				return false
			}
			if cb.Index(k) != a.Index(k) && cb.Index(k) != b.Index(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMutationStaysInRange(t *testing.T) {
	space := knobs.DefaultSpace()
	rng := rand.New(rand.NewSource(9))
	cfg := space.MidConfig()
	for i := 0; i < 50; i++ {
		m := mutate(rng, space, cfg)
		for k := 0; k < space.Len(); k++ {
			if m.Index(k) < 0 || m.Index(k) >= space.Def(k).NumValues() {
				t.Fatalf("mutation produced out-of-range index at knob %d", k)
			}
		}
	}
}

func TestBruteForceFindsOptimumOnSmallSpace(t *testing.T) {
	// A 2-knob space small enough for exhaustive enumeration.
	space := knobs.MustSpace([]knobs.Def{
		{Name: "A", Kind: knobs.KindRegDist, Values: []float64{1, 2, 3, 4, 5}},
		{Name: "B", Kind: knobs.KindRegDist, Values: []float64{1, 2, 3, 4, 5}},
	})
	target, _ := space.ConfigFromIndices([]int{3, 1})
	prob := quadraticProblem(space, target, 1, 1)
	bf := NewBruteForce(100)
	res, err := bf.Run(context.Background(), prob)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestLoss != 0 {
		t.Errorf("brute force missed the optimum on an exhaustively searchable space: loss %v", res.BestLoss)
	}
	if !res.Converged {
		t.Error("brute force should always report converged")
	}
	if res.TotalEvaluations > 100 {
		t.Errorf("budget exceeded: %d evaluations", res.TotalEvaluations)
	}
}

func TestBruteForceLatticeRespectsBudget(t *testing.T) {
	space := knobs.DefaultSpace() // far too large to enumerate
	prob := quadraticProblem(space, space.MidConfig(), 1, 1)
	bf := NewBruteForce(500)
	res, err := bf.Run(context.Background(), prob)
	if err != nil {
		t.Fatal(err)
	}
	// The lattice + random phases respect the budget exactly; the greedy
	// refinement polish may add at most a few passes of 2*knobs evaluations.
	if res.TotalEvaluations < 500 || res.TotalEvaluations > 500+4*space.Len() {
		t.Errorf("evaluations %d outside [500, %d]", res.TotalEvaluations, 500+4*space.Len())
	}
	if len(res.Epochs) == 0 {
		t.Error("no progression recorded")
	}
}

func TestBruteForceIndexSets(t *testing.T) {
	bf := NewBruteForce(64)
	space := knobs.DefaultSpace()
	sets := bf.indexSets(space)
	if len(sets) != space.Len() {
		t.Fatal("one index set per knob expected")
	}
	for k, set := range sets {
		n := space.Def(k).NumValues()
		if set[0] != 0 || set[len(set)-1] != n-1 {
			t.Errorf("knob %d lattice must include the extremes: %v", k, set)
		}
		if len(set) > bruteForceLatticePoints {
			t.Errorf("knob %d lattice has %d points, want <= %d", k, len(set), bruteForceLatticePoints)
		}
	}
}

func TestRandomSearchImproves(t *testing.T) {
	space := knobs.InstructionOnlySpace()
	target := space.RandomConfig(rand.New(rand.NewSource(21)))
	prob := quadraticProblem(space, target, 20, 2)
	prob.TargetLoss = NoTargetLoss
	rs := NewRandomSearch()
	res, err := rs.Run(context.Background(), prob)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.BestLoss, 1) {
		t.Error("random search found nothing")
	}
	if res.Epochs[len(res.Epochs)-1].BestLoss > res.Epochs[0].BestLoss {
		t.Error("best loss should not get worse over epochs")
	}
	if res.TotalEvaluations != 20*20 {
		t.Errorf("evaluations = %d, want 400", res.TotalEvaluations)
	}
}

func TestTunersAreInterchangeable(t *testing.T) {
	// The modularity claim: every mechanism runs the same Problem.
	space := knobs.InstructionOnlySpace()
	target := space.MidConfig()
	tuners := []Tuner{
		NewGradientDescent(),
		NewGeneticAlgorithm(),
		NewBruteForce(200),
		NewRandomSearch(),
	}
	for _, tn := range tuners {
		prob := quadraticProblem(space, target, 5, 13)
		res, err := tn.Run(context.Background(), prob)
		if err != nil {
			t.Errorf("%s: %v", tn.Name(), err)
			continue
		}
		if res.Best.IsZero() || math.IsInf(res.BestLoss, 1) {
			t.Errorf("%s produced no result", tn.Name())
		}
	}
}

// constraintSpace is a 4x4 space over two knobs a, b in 1..4, on which the
// constraint tests measure power = a+b against a cap of 5.
func constraintSpace(t *testing.T) *knobs.Space {
	t.Helper()
	space, err := knobs.NewSpace([]knobs.Def{
		{Name: "a", Kind: knobs.KindRegDist, Values: []float64{1, 2, 3, 4}},
		{Name: "b", Kind: knobs.KindMemSize, Values: []float64{1, 2, 3, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// TestConstraintKeepsFeasibleOptimum sweeps the whole space with brute force
// under a power cap the unconstrained optimum (a=1) satisfies: the cap must
// not move the best away from it.
func TestConstraintKeepsFeasibleOptimum(t *testing.T) {
	res, err := NewBruteForce(registryBruteForceEvaluations).Run(context.Background(), Problem{
		Space: constraintSpace(t),
		Loss:  metrics.StressLoss{Metric: "obj"},
		Evaluator: blind(func(cfg knobs.Config) (metrics.Vector, error) {
			a, b := cfg.Value(0), cfg.Value(1)
			return metrics.Vector{"obj": a, "power": a + b}, nil
		}),
		Constraint: &Constraint{Metric: "power", Max: 5},
		MaxEpochs:  1,
		TargetLoss: NoTargetLoss,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestLoss != 1 {
		t.Errorf("BestLoss = %v, want 1 (a=1 is feasible)", res.BestLoss)
	}
	if res.BestMetrics["power"] > 5 {
		t.Errorf("best configuration violates the cap: power %v > 5", res.BestMetrics["power"])
	}
}

// TestConstraintSteersBestAwayFromInfeasible inverts the objective so the
// unconstrained optimum (a=b=4) violates the cap: the penalty must keep the
// reported best inside the feasible region, and it must grow with the
// violation while staying above every feasible loss.
func TestConstraintSteersBestAwayFromInfeasible(t *testing.T) {
	res, err := NewBruteForce(registryBruteForceEvaluations).Run(context.Background(), Problem{
		Space: constraintSpace(t),
		Loss:  metrics.StressLoss{Metric: "obj"},
		Evaluator: blind(func(cfg knobs.Config) (metrics.Vector, error) {
			a, b := cfg.Value(0), cfg.Value(1)
			return metrics.Vector{"obj": 10 - a - b, "power": a + b}, nil
		}),
		Constraint: &Constraint{Metric: "power", Max: 5},
		MaxEpochs:  1,
		TargetLoss: NoTargetLoss,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestMetrics["power"] > 5 {
		t.Errorf("best configuration violates the cap: power %v > 5", res.BestMetrics["power"])
	}
	if res.BestLoss != 5 {
		t.Errorf("BestLoss = %v, want 5 (the best feasible a+b is 5)", res.BestLoss)
	}

	e := &engine{prob: Problem{
		Loss:       metrics.StressLoss{Metric: "obj"},
		Constraint: &Constraint{Metric: "power", Max: 5},
	}}
	feasible := e.score(metrics.Vector{"obj": 9, "power": 5})
	slight := e.score(metrics.Vector{"obj": 0, "power": 6})
	far := e.score(metrics.Vector{"obj": 0, "power": 8})
	if !(feasible < slight && slight < far) {
		t.Errorf("scores feasible %v, 1 W over %v, 3 W over %v: want a penalty above every feasible loss that grows with the violation",
			feasible, slight, far)
	}
}
