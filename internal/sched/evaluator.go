package sched

import (
	"context"
	"fmt"

	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
)

// EvalFunc maps one knob configuration, evaluated at a fidelity, to its
// measured metric vector. Fidelity in (0,1) evaluates a correspondingly
// shortened simulation (the successive-halving tuner's cheap screening
// rungs); 0 or 1 is the full evaluation. It is the unit of work the engine
// schedules: each worker owns one EvalFunc whose captured state
// (synthesizer, simulation platform) is private to it, which is what makes
// fan-out safe even though the platforms themselves are not
// concurrency-safe. Through EvaluateBatch it is also the serial evaluator.
type EvalFunc func(cfg knobs.Config, fidelity float64) (metrics.Vector, error)

// EvaluateBatch evaluates the configurations in order on the calling
// goroutine, checking ctx between evaluations; results[i] corresponds to
// cfgs[i].
func (f EvalFunc) EvaluateBatch(ctx context.Context, cfgs []knobs.Config, fidelity float64) ([]metrics.Vector, error) {
	out := make([]metrics.Vector, len(cfgs))
	for i, cfg := range cfgs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		v, err := f(cfg, fidelity)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// ParallelEvaluator fans batches out over a fixed set of worker EvalFuncs.
// Its EvaluateBatch returns results identical to evaluating the
// configurations one by one in order — callers rely on this to keep
// parallel tuning runs bit-identical to serial ones.
type ParallelEvaluator struct {
	// slots holds one worker per entry; a worker is checked out for the
	// duration of one evaluation, so each is only ever used by one
	// goroutine at a time.
	slots chan EvalFunc
}

// NewParallelEvaluator builds a pool of workers evaluator instances from the
// factory. A workers value <= 0 selects GOMAXPROCS. The factory is
// called once per worker and must return evaluators that are independent of
// each other (typically each wraps its own simulation platform).
func NewParallelEvaluator(workers int, factory func() (EvalFunc, error)) (*ParallelEvaluator, error) {
	workers = Workers(workers, 0)
	slots := make(chan EvalFunc, workers)
	for i := 0; i < workers; i++ {
		f, err := factory()
		if err != nil {
			return nil, fmt.Errorf("sched: building worker %d: %w", i, err)
		}
		if f == nil {
			return nil, fmt.Errorf("sched: worker factory returned nil evaluator")
		}
		slots <- f
	}
	return &ParallelEvaluator{slots: slots}, nil
}

// EvaluateBatch evaluates the configurations concurrently across the pool
// and returns the results in input order. It is safe for concurrent use.
func (e *ParallelEvaluator) EvaluateBatch(ctx context.Context, cfgs []knobs.Config, fidelity float64) ([]metrics.Vector, error) {
	out := make([]metrics.Vector, len(cfgs))
	err := Run(ctx, cap(e.slots), len(cfgs), func(_ context.Context, i int) error {
		f := <-e.slots
		defer func() { e.slots <- f }()
		v, err := f(cfgs[i], fidelity)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
