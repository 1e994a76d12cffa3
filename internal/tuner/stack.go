package tuner

import (
	"context"
	"fmt"

	"micrograd/internal/evalcache"
	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/microprobe"
	"micrograd/internal/platform"
	"micrograd/internal/program"
	"micrograd/internal/sched"
)

// PlatformOptions describes the evaluation stack of one tuning run over a
// simulation platform.
type PlatformOptions struct {
	// Name labels the kernels synthesized for every request.
	Name string
	// Platform serves serial runs, is the first worker of a parallel one,
	// and supplies the cache identity.
	Platform platform.Platform
	// Parallel > 1 with NewPlatform set fans every batch out over Parallel
	// workers: Platform and Parallel-1 more platforms from NewPlatform, one
	// per worker (platforms are not concurrency-safe). Results are
	// bit-identical to the serial stack.
	Parallel    int
	NewPlatform func() (platform.Platform, error)
	// Synth is the kernel-synthesis memo every worker shares; its options
	// are part of the cache identity. Nil gives the run a private one of
	// LoopSize, seeded with the problem's Seed.
	Synth    *microprobe.CachingSynthesizer
	LoopSize int
	// Options are the base evaluation options; each evaluation sets their
	// Fidelity.
	Options platform.EvalOptions
	// Memo is a shared cache group; nil builds a private unbounded one.
	Memo *evalcache.Group
}

// TunePlatform is the tuning spine of every use case: it runs t on prob
// over the evaluation stack o describes, rejects a run that found no
// configuration, and regenerates the winner's kernel, named o.Name, with a
// plain synthesizer built from o.Synth's options, so the kernel matches
// what the memo evaluated. evaluations is the run's real simulator work.
func TunePlatform(ctx context.Context, t Tuner, o PlatformOptions, prob Problem) (res Result, prog *program.Program, evaluations int, err error) {
	if o.Synth == nil {
		o.Synth = microprobe.NewCachingSynthesizer(microprobe.Options{LoopSize: o.LoopSize, Seed: prob.Seed})
	}
	memo, err := newPlatformEvaluator(o)
	if err != nil {
		return res, nil, 0, err
	}
	prob.Evaluator = memo
	if res, err = t.Run(ctx, prob); err != nil {
		return res, nil, 0, fmt.Errorf("tuning %s: %w", o.Name, err)
	}
	if res.Best.IsZero() {
		return res, nil, 0, fmt.Errorf("tuner produced no configuration for %s", o.Name)
	}
	if prog, err = microprobe.NewSynthesizer(o.Synth.Options()).Synthesize(o.Name, res.Best); err != nil {
		return res, nil, 0, fmt.Errorf("regenerating %s kernel: %w", o.Name, err)
	}
	prog.Meta["tuner"] = res.Tuner
	return res, prog, int(memo.Misses()), nil
}

// newPlatformEvaluator builds the evaluation stack every use case runs on:
// one EvalSession per worker (serial, or pooled when o.Parallel asks for
// it), behind a memo keyed through platform.EvalKeyer — so a shared group
// only ever serves results an isolated run would have computed
// identically. The memo's Misses counter is the run's real simulator work.
func newPlatformEvaluator(o PlatformOptions) (*MemoizingEvaluator, error) {
	if o.Platform == nil || o.Synth == nil {
		return nil, fmt.Errorf("tuner: platform evaluator needs a platform and a synthesizer")
	}
	worker := func(plat platform.Platform) sched.EvalFunc {
		session := platform.NewEvalSession(plat, o.Synth)
		return func(cfg knobs.Config, fidelity float64) (metrics.Vector, error) {
			opts := o.Options
			opts.Fidelity = fidelity
			resp, err := session.Evaluate(platform.EvalRequest{Name: o.Name, Config: cfg, Options: opts})
			return resp.Metrics, err
		}
	}
	first := worker(o.Platform)
	var base Evaluator = first
	if o.Parallel > 1 && o.NewPlatform != nil {
		// The given platform is the first worker; NewPlatform builds the rest.
		pe, err := sched.NewParallelEvaluator(o.Parallel, func() (sched.EvalFunc, error) {
			if first != nil {
				f := first
				first = nil
				return f, nil
			}
			plat, err := o.NewPlatform()
			if err != nil {
				return nil, err
			}
			return worker(plat), nil
		})
		if err != nil {
			return nil, fmt.Errorf("tuner: building evaluation pool: %w", err)
		}
		base = pe
	}
	keyer := platform.NewEvalKeyer(platform.EvalIdentityOf(o.Platform), o.Synth.Options(), o.Options)
	return NewSharedMemoizingEvaluator(base, o.Memo, keyer), nil
}
