package tuner

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"micrograd/internal/evalcache"
	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/microprobe"
	"micrograd/internal/platform"
	"micrograd/internal/sched"
)

// knobValueEval maps a configuration to a deterministic vector derived from
// its key, so results are checkable without a simulator; the returned
// counter tracks how often the inner evaluator really ran.
func knobValueEval() (sched.EvalFunc, *atomic.Int64) {
	return countingEval(func(cfg knobs.Config) (metrics.Vector, error) {
		return metrics.Vector{"k": float64(len(cfg.Key()))}, nil
	})
}

// sharedKeyer keys the shared-group tests: every memo over it addresses the
// same (identity, synthesizer, options) combination.
var sharedKeyer = platform.NewEvalKeyer("shared-test", microprobe.Options{}, platform.EvalOptions{})

func TestSharedGroupServesCrossEvaluatorHits(t *testing.T) {
	group := evalcache.NewGroup(evalcache.NewMap())
	evalA, countA := knobValueEval()
	evalB, countB := knobValueEval()
	memoA := NewSharedMemoizingEvaluator(evalA, group, sharedKeyer)
	memoB := NewSharedMemoizingEvaluator(evalB, group, sharedKeyer)

	cfg := knobs.StressSpace().MidConfig()
	va, err := evalSingle(memoA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := evalSingle(memoB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(va, vb) {
		t.Fatalf("shared-cache results differ: %v vs %v", va, vb)
	}
	if countA.Load() != 1 || countB.Load() != 0 {
		t.Fatalf("inner counts = %d/%d, want 1/0 (B must hit A's result)", countA.Load(), countB.Load())
	}
	if memoB.Misses() != 0 {
		t.Fatalf("memoB misses = %d, want 0", memoB.Misses())
	}
	hits, misses := group.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("group Stats = %d/%d, want 1 hit / 1 miss", hits, misses)
	}
}

func TestLRUBoundedMemoStaysDeterministicUnderEviction(t *testing.T) {
	space := knobs.StressSpace()
	cfgs := []knobs.Config{
		space.MidConfig(),
		space.MidConfig().Step(0, 1),
		space.MidConfig().Step(1, 1),
		space.MidConfig(), // duplicate of [0], likely evicted by then
		space.MidConfig().Step(0, 1),
	}

	run := func(cache evalcache.Cache) ([]metrics.Vector, *atomic.Int64) {
		eval, count := knobValueEval()
		memo := NewSharedMemoizingEvaluator(eval, evalcache.NewGroup(cache), sharedKeyer)
		var out []metrics.Vector
		for _, cfg := range cfgs {
			v, err := evalSingle(memo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v)
		}
		batch, err := memo.EvaluateBatch(context.Background(), cfgs, 1)
		if err != nil {
			t.Fatal(err)
		}
		return append(out, batch...), count
	}

	lru, err := evalcache.NewLRU(1)
	if err != nil {
		t.Fatal(err)
	}
	bounded, boundedCount := run(lru)
	unbounded, unboundedCount := run(evalcache.NewMap())
	if !reflect.DeepEqual(bounded, unbounded) {
		t.Fatal("LRU-bounded results differ from unbounded results")
	}
	if lru.Len() > 1 {
		t.Fatalf("LRU Len = %d exceeds cap 1", lru.Len())
	}
	// Eviction costs extra inner evaluations but never changes results.
	if boundedCount.Load() < unboundedCount.Load() {
		t.Fatalf("bounded inner count %d < unbounded %d", boundedCount.Load(), unboundedCount.Load())
	}
}

func TestLRUBoundedMemoKeepsSingleFlight(t *testing.T) {
	// Many goroutines hammer two keys through a capacity-1 cache. Eviction
	// may force re-evaluations between rounds, but within one in-flight
	// window a key must be evaluated exactly once, and every caller must see
	// the same deterministic value.
	var mu sync.Mutex
	inFlight := map[string]int{}
	base := blind(func(cfg knobs.Config) (metrics.Vector, error) {
		key := cfg.Key()
		mu.Lock()
		inFlight[key]++
		if inFlight[key] > 1 {
			mu.Unlock()
			return nil, fmt.Errorf("duplicate concurrent evaluation of %q", key)
		}
		mu.Unlock()
		v := metrics.Vector{"k": float64(len(key))}
		mu.Lock()
		inFlight[key]--
		mu.Unlock()
		return v, nil
	})
	lru, err := evalcache.NewLRU(1)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewSharedMemoizingEvaluator(base, evalcache.NewGroup(lru), sharedKeyer)

	space := knobs.StressSpace()
	cfgs := []knobs.Config{space.MidConfig(), space.MidConfig().Step(0, 1)}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				cfg := cfgs[(w+r)%2]
				v, err := evalSingle(memo, cfg)
				if err != nil {
					errs <- err
					return
				}
				if v["k"] != float64(len(cfg.Key())) {
					errs <- fmt.Errorf("wrong value %v for %q", v, cfg.Key())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if lru.Len() > 1 {
		t.Fatalf("LRU Len = %d exceeds cap 1", lru.Len())
	}
}

func TestOnEpochStreamsRecordsInOrder(t *testing.T) {
	eval, _ := knobValueEval()
	var streamed []EpochRecord
	prob := Problem{
		Space:     knobs.StressSpace(),
		Loss:      metrics.StressLoss{Metric: "k", Maximize: true},
		Evaluator: eval,
		MaxEpochs: 3,
		Seed:      1,
		OnEpoch:   func(rec EpochRecord) { streamed = append(streamed, rec) },
	}
	res, err := NewGradientDescent().Run(context.Background(), prob)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(res.Epochs) {
		t.Fatalf("streamed %d records, result has %d", len(streamed), len(res.Epochs))
	}
	if !reflect.DeepEqual(streamed, res.Epochs) {
		t.Fatal("streamed records differ from the result's progression")
	}
}
