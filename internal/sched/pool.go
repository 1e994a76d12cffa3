// Package sched provides the parallel evaluation engine MicroGrad's tuners
// and experiment runners share: a context-aware worker pool and a batch
// evaluator that fans independent knob-configuration evaluations out across
// per-worker platform instances.
//
// The engine preserves the framework's determinism guarantee: evaluating a
// knob configuration is a pure function of the configuration (the simulation
// platforms reset their state per run and the synthesizer derives its RNG
// from a fixed seed per call), so results are folded back in submission-index
// order and a parallel run is bit-identical to the serial one.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested worker count: non-positive values select
// one worker per available CPU (GOMAXPROCS), and the count never exceeds the
// number of tasks when that bound is known (pass n <= 0 for "unbounded").
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if n > 0 && w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes task(ctx, i) for every i in [0, n) on up to workers
// goroutines. It returns the error of the lowest task index that failed (so
// that error reporting is deterministic regardless of scheduling), or the
// context's error when it was cancelled and no task failed, after all
// started tasks have finished. The context passed to tasks is cancelled as
// soon as any task fails, and task indices are claimed in order, so early
// indices are started first.
//
// A workers value of 1 (or n == 1) degenerates to a plain serial loop on the
// calling goroutine with no goroutine or channel overhead.
func Run(ctx context.Context, workers, n int, task func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := task(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	// A fresh variable, not a reassigned parameter: the workers capture it,
	// and a captured parameter would be moved to the heap on the serial
	// path too.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64 // next task index to claim
		mu       sync.Mutex
		firstIdx = n + 1 // lowest failed index seen so far
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		cancel()
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := runCtx.Err(); err != nil {
					// Cancelled by the caller or by a failed task, whose
					// own error must win even at a higher index: rank the
					// cancellation after every task.
					fail(n, err)
					return
				}
				if err := task(runCtx, i); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Map runs fn over every item of items on up to workers goroutines and
// returns the results in input order. On error the returned slice holds the
// results completed before the failure (the rest are zero values) and the
// error is the one of the lowest failing index.
func Map[T, R any](ctx context.Context, workers int, items []T, fn func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	err := Run(ctx, workers, len(items), func(ctx context.Context, i int) error {
		r, err := fn(ctx, i, items[i])
		if err != nil {
			return fmt.Errorf("sched: task %d: %w", i, err)
		}
		out[i] = r
		return nil
	})
	return out, err
}
