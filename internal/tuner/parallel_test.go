package tuner

import (
	"context"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/sched"
)

// parallelTestSpace is a small 4-knob space shared by the determinism tests
// (both runs must use the same *Space instance for configs to compare equal).
func parallelTestSpace(t testing.TB) *knobs.Space {
	t.Helper()
	vals := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	space, err := knobs.NewSpace([]knobs.Def{
		{Name: "k0", Kind: knobs.KindRegDist, Values: vals(6)},
		{Name: "k1", Kind: knobs.KindMemSize, Values: vals(5)},
		{Name: "k2", Kind: knobs.KindMemStride, Values: vals(7)},
		{Name: "k3", Kind: knobs.KindMemTemp1, Values: vals(4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// bumpyEval is a pure, deterministic evaluation function with several local
// minima, so the tuners have something non-trivial to descend.
func bumpyEval(cfg knobs.Config) (metrics.Vector, error) {
	score := 0.0
	for i := 0; i < cfg.Len(); i++ {
		v := cfg.Value(i)
		score += (v - 2.5) * (v - 2.5)
		score += 0.75 * math.Sin(3*v+float64(i))
	}
	return metrics.Vector{"score": score, "aux": score * 2}, nil
}

// blind adapts a fidelity-blind evaluation function to the batch boundary.
func blind(f func(knobs.Config) (metrics.Vector, error)) sched.EvalFunc {
	return func(cfg knobs.Config, _ float64) (metrics.Vector, error) { return f(cfg) }
}

// countingEval is blind(f) plus a call counter — the real simulator work a
// memo's Misses() must match.
func countingEval(f func(knobs.Config) (metrics.Vector, error)) (sched.EvalFunc, *atomic.Int64) {
	calls := new(atomic.Int64)
	return func(cfg knobs.Config, _ float64) (metrics.Vector, error) {
		calls.Add(1)
		return f(cfg)
	}, calls
}

// evalSingle evaluates one configuration at full fidelity.
func evalSingle(e Evaluator, cfg knobs.Config) (metrics.Vector, error) {
	vs, err := e.EvaluateBatch(context.Background(), []knobs.Config{cfg}, 1)
	if err != nil {
		return nil, err
	}
	return vs[0], nil
}

// runBoth runs the same problem once with a plain serial evaluator and once
// with the parallel engine (pool of 8 workers), both behind a memo, and
// returns the two results.
func runBoth(t *testing.T, tun Tuner, space *knobs.Space, maxEpochs int) (serial, parallel Result) {
	t.Helper()
	return runBothBudget(t, tun, space, maxEpochs, 0)
}

// runBothBudget is runBoth with a proposed-evaluation budget (0 = unlimited),
// which the budget-planned tuners (successive halving) require.
func runBothBudget(t *testing.T, tun Tuner, space *knobs.Space, maxEpochs, maxEvals int) (serial, parallel Result) {
	t.Helper()
	problem := func(eval Evaluator) Problem {
		return Problem{
			Space:          space,
			Loss:           metrics.StressLoss{Metric: "score"},
			Evaluator:      NewSharedMemoizingEvaluator(eval, nil, sharedKeyer),
			MaxEpochs:      maxEpochs,
			MaxEvaluations: maxEvals,
			TargetLoss:     NoTargetLoss,
			Seed:           42,
		}
	}
	serialRes, err := tun.Run(context.Background(), problem(blind(bumpyEval)))
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	pe, err := sched.NewParallelEvaluator(8, func() (sched.EvalFunc, error) { return blind(bumpyEval), nil })
	if err != nil {
		t.Fatal(err)
	}
	parallelRes, err := tun.Run(context.Background(), problem(pe))
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	return serialRes, parallelRes
}

// assertResultsIdentical checks that a parallel run reproduced a serial run
// bit-for-bit: same best configuration, same losses, same evaluation counts,
// same epoch progression.
func assertResultsIdentical(t *testing.T, serial, parallel Result) {
	t.Helper()
	if serial.BestLoss != parallel.BestLoss {
		t.Errorf("BestLoss: serial %v, parallel %v", serial.BestLoss, parallel.BestLoss)
	}
	if !serial.Best.Equal(parallel.Best) {
		t.Errorf("Best config: serial %v, parallel %v", serial.Best, parallel.Best)
	}
	if !reflect.DeepEqual(serial.BestMetrics, parallel.BestMetrics) {
		t.Errorf("BestMetrics: serial %v, parallel %v", serial.BestMetrics, parallel.BestMetrics)
	}
	if serial.TotalEvaluations != parallel.TotalEvaluations {
		t.Errorf("TotalEvaluations: serial %d, parallel %d", serial.TotalEvaluations, parallel.TotalEvaluations)
	}
	if serial.Converged != parallel.Converged {
		t.Errorf("Converged: serial %v, parallel %v", serial.Converged, parallel.Converged)
	}
	if !reflect.DeepEqual(serial.Epochs, parallel.Epochs) {
		t.Errorf("epoch progressions differ:\nserial:   %+v\nparallel: %+v", serial.Epochs, parallel.Epochs)
	}
}

func TestParallelGADeterminism(t *testing.T) {
	space := parallelTestSpace(t)
	serial, parallel := runBoth(t, NewGeneticAlgorithm(GAParams{}), space, 6)
	assertResultsIdentical(t, serial, parallel)
}

func TestParallelBruteForceDeterminism(t *testing.T) {
	space := parallelTestSpace(t)
	bf := NewBruteForce(BruteForceParams{MaxEvaluations: 300, LatticePointsPerKnob: 2, ReportEvery: 64})
	serial, parallel := runBoth(t, bf, space, 1)
	assertResultsIdentical(t, serial, parallel)
	if !parallel.Converged {
		t.Error("brute force should report convergence")
	}
}

func TestParallelGDDeterminism(t *testing.T) {
	space := parallelTestSpace(t)
	serial, parallel := runBoth(t, NewGradientDescent(GDParams{}), space, 12)
	assertResultsIdentical(t, serial, parallel)
}

func TestParallelRandomSearchDeterminism(t *testing.T) {
	space := parallelTestSpace(t)
	serial, parallel := runBoth(t, NewRandomSearch(RandomSearchParams{EvaluationsPerEpoch: 15}), space, 5)
	assertResultsIdentical(t, serial, parallel)
}

func TestParallelCMAESDeterminism(t *testing.T) {
	space := parallelTestSpace(t)
	serial, parallel := runBoth(t, NewCMAES(CMAESParams{}), space, 8)
	assertResultsIdentical(t, serial, parallel)
}

func TestParallelHalvingDeterminism(t *testing.T) {
	space := parallelTestSpace(t)
	for _, tun := range []Tuner{
		NewSuccessiveHalving(NewGradientDescent(GDParams{}), SuccessiveHalvingParams{}),
		NewSuccessiveHalving(NewCMAES(CMAESParams{}), SuccessiveHalvingParams{}),
	} {
		t.Run(tun.Name(), func(t *testing.T) {
			serial, parallel := runBothBudget(t, tun, space, 8, 120)
			assertResultsIdentical(t, serial, parallel)
		})
	}
}

func TestMemoizingEvaluatorSingleFlight(t *testing.T) {
	space := parallelTestSpace(t)
	cfg := space.MidConfig()
	var calls atomic.Int64
	slow := blind(func(c knobs.Config) (metrics.Vector, error) {
		calls.Add(1)
		time.Sleep(20 * time.Millisecond) // widen the race window
		return bumpyEval(c)
	})
	memo := NewSharedMemoizingEvaluator(slow, nil, sharedKeyer)

	const goroutines = 16
	var wg sync.WaitGroup
	results := make([]metrics.Vector, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := evalSingle(memo, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = v
		}(i)
	}
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("inner evaluator ran %d times for one configuration, want 1 (single-flight)", got)
	}
	want, _ := bumpyEval(cfg)
	for i, v := range results {
		if !reflect.DeepEqual(v, want) {
			t.Errorf("goroutine %d got %v, want %v", i, v, want)
		}
	}
	if memo.group.Len() != 1 {
		t.Errorf("cache size = %d, want 1", memo.group.Len())
	}
}

func TestMemoizingEvaluatorConcurrentDistinct(t *testing.T) {
	space := parallelTestSpace(t)
	var calls atomic.Int64
	inner := blind(func(c knobs.Config) (metrics.Vector, error) {
		calls.Add(1)
		return bumpyEval(c)
	})
	memo := NewSharedMemoizingEvaluator(inner, nil, sharedKeyer)

	// Hammer the memoizer with a mix of distinct and repeated configs from
	// many goroutines; under -race this validates the locking, and the call
	// count validates that every distinct config is evaluated exactly once.
	cfgs := make([]knobs.Config, 0, 12)
	for i := 0; i < 6; i++ {
		cfgs = append(cfgs, space.MidConfig().Step(0, i-3))
	}
	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, cfg := range cfgs {
				if _, err := evalSingle(memo, cfg); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	distinct := map[string]bool{}
	for _, cfg := range cfgs {
		distinct[cfg.Key()] = true
	}
	if got, want := int(calls.Load()), len(distinct); got != want {
		t.Errorf("inner evaluator ran %d times, want %d (one per distinct config)", got, want)
	}
}

func TestMemoizingEvaluatorBatchDedup(t *testing.T) {
	space := parallelTestSpace(t)
	eval, calls := countingEval(bumpyEval)
	memo := NewSharedMemoizingEvaluator(eval, nil, sharedKeyer)

	a := space.MidConfig()
	b := a.Step(0, 1)
	c := a.Step(1, -1)
	batch := []knobs.Config{a, b, a, c, b, a} // 3 distinct configs, 6 requests
	out, err := memo.EvaluateBatch(context.Background(), batch, 1)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Errorf("inner evaluations = %d, want 3 (batch dedup)", calls.Load())
	}
	for i, cfg := range batch {
		want, _ := bumpyEval(cfg)
		if !reflect.DeepEqual(out[i], want) {
			t.Errorf("batch[%d] = %v, want %v", i, out[i], want)
		}
	}

	// A second batch is fully cached: no further inner evaluations.
	if _, err := memo.EvaluateBatch(context.Background(), batch, 1); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Errorf("inner evaluations after cached batch = %d, want 3", calls.Load())
	}
	// 12 requests total: 3 unique misses, everything else (within-batch
	// duplicates and the fully-cached second pass) hits.
	if memo.Misses() != 3 {
		t.Errorf("memo misses = %d, want 3", memo.Misses())
	}
}

// TestMemoizingEvaluatorMissesConcurrent pins Misses() as the count of real
// inner evaluations under concurrency: goroutines hammering overlapping
// batches at two fidelity levels run every (configuration, level) pair
// exactly once.
func TestMemoizingEvaluatorMissesConcurrent(t *testing.T) {
	space := parallelTestSpace(t)
	eval, calls := countingEval(bumpyEval)
	memo := NewSharedMemoizingEvaluator(eval, nil, sharedKeyer)
	cfgs := make([]knobs.Config, 5)
	for i := range cfgs {
		cfgs[i] = space.MidConfig().Step(1, i-2)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				batch := cfgs[i%len(cfgs):]
				if _, err := memo.EvaluateBatch(context.Background(), batch, []float64{1, 0.5}[(g+i)%2]); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := calls.Load(); got != 10 || memo.Misses() != uint64(got) {
		t.Errorf("inner evaluations = %d, misses = %d, want 10 each (5 configurations x 2 levels)", got, memo.Misses())
	}
}
