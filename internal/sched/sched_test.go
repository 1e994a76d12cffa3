package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
)

func TestWorkersNormalization(t *testing.T) {
	if got := Workers(0, 0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0,0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(8, 3); got != 3 {
		t.Errorf("Workers(8,3) = %d, want 3 (capped by task count)", got)
	}
	if got := Workers(2, 100); got != 2 {
		t.Errorf("Workers(2,100) = %d, want 2", got)
	}
	if got := Workers(-1, 1); got != 1 {
		t.Errorf("Workers(-1,1) = %d, want 1", got)
	}
}

func TestRunExecutesEveryTask(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 32} {
		const n = 100
		var done [n]atomic.Bool
		err := Run(context.Background(), workers, n, func(_ context.Context, i int) error {
			if done[i].Swap(true) {
				return fmt.Errorf("task %d ran twice", i)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range done {
			if !done[i].Load() {
				t.Fatalf("workers=%d: task %d never ran", workers, i)
			}
		}
	}
}

func TestRunZeroTasks(t *testing.T) {
	if err := Run(context.Background(), 4, 0, func(context.Context, int) error {
		t.Fatal("task ran for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunReturnsLowestIndexError(t *testing.T) {
	boom := errors.New("boom")
	// Fail at several indices; regardless of scheduling the reported error
	// must be the lowest one (deterministic error reporting).
	for _, workers := range []int{1, 4, 16} {
		err := Run(context.Background(), workers, 64, func(_ context.Context, i int) error {
			if i == 7 || i == 8 || i == 40 {
				return fmt.Errorf("task %d: %w", i, boom)
			}
			return nil
		})
		if err == nil || !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if got := err.Error(); got != "task 7: boom" {
			t.Fatalf("workers=%d: err = %q, want lowest failing index 7", workers, got)
		}
	}
}

func TestRunRespectsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := Run(ctx, 4, 10, func(_ context.Context, i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d tasks ran under a cancelled context", ran.Load())
	}
}

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 50)
	for i := range items {
		items[i] = i * 3
	}
	out, err := Map(context.Background(), 8, items, func(_ context.Context, i, item int) (int, error) {
		return item + 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != items[i]+1 {
			t.Fatalf("out[%d] = %d, want %d", i, v, items[i]+1)
		}
	}
}

// testSpace builds a tiny knob space for evaluator tests.
func testSpace(t testing.TB) *knobs.Space {
	t.Helper()
	space, err := knobs.NewSpace([]knobs.Def{
		{Name: "a", Kind: knobs.KindRegDist, Values: []float64{1, 2, 3, 4}},
		{Name: "b", Kind: knobs.KindMemSize, Values: []float64{8, 16, 32}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// pureEval is a deterministic, pure evaluation function of the config.
func pureEval(cfg knobs.Config, _ float64) (metrics.Vector, error) {
	sum := 0.0
	for i := 0; i < cfg.Len(); i++ {
		sum += cfg.Value(i) * float64(i+1)
	}
	return metrics.Vector{"score": sum}, nil
}

func TestParallelEvaluatorMatchesSerial(t *testing.T) {
	space := testSpace(t)
	pe, err := NewParallelEvaluator(4, func() (EvalFunc, error) { return pureEval, nil })
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []knobs.Config
	for a := 0; a < 4; a++ {
		for b := 0; b < 3; b++ {
			cfg, err := space.ConfigFromIndices([]int{a, b})
			if err != nil {
				t.Fatal(err)
			}
			cfgs = append(cfgs, cfg)
		}
	}
	got, err := pe.EvaluateBatch(context.Background(), cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := EvalFunc(pureEval).EvaluateBatch(context.Background(), cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range serial {
		if got[i]["score"] != want["score"] {
			t.Errorf("cfg %d: batch = %v, serial = %v", i, got[i], want)
		}
	}
}

func TestParallelEvaluatorConcurrentScalar(t *testing.T) {
	space := testSpace(t)
	// Each worker slot counts its own concurrent use; the slot channel must
	// guarantee exclusive checkout.
	var violations atomic.Int64
	pe, err := NewParallelEvaluator(3, func() (EvalFunc, error) {
		var busy atomic.Bool
		return func(cfg knobs.Config, fidelity float64) (metrics.Vector, error) {
			if busy.Swap(true) {
				violations.Add(1)
			}
			defer busy.Store(false)
			return pureEval(cfg, fidelity)
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := space.MidConfig()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pe.EvaluateBatch(context.Background(), []knobs.Config{cfg, cfg}, 1); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d concurrent uses of a single worker slot", violations.Load())
	}
}

func TestParallelEvaluatorBatchError(t *testing.T) {
	space := testSpace(t)
	boom := errors.New("bad config")
	pe, err := NewParallelEvaluator(4, func() (EvalFunc, error) {
		return func(cfg knobs.Config, fidelity float64) (metrics.Vector, error) {
			if cfg.Index(0) == 2 {
				return nil, boom
			}
			return pureEval(cfg, fidelity)
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []knobs.Config
	for a := 0; a < 4; a++ {
		cfg, err := space.ConfigFromIndices([]int{a, 0})
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	if _, err := pe.EvaluateBatch(context.Background(), cfgs, 1); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped bad-config error", err)
	}
}
