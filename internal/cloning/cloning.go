// Package cloning implements MicroGrad's Workload Cloning use case: given a
// reference application's metric vector (measured on an evaluation
// platform), tune the knob configuration until the generated synthetic
// workload reproduces those metrics, then emit the clone.
package cloning

import (
	"context"
	"fmt"
	"math"
	"strings"

	"micrograd/internal/evalcache"
	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/microprobe"
	"micrograd/internal/platform"
	"micrograd/internal/program"
	"micrograd/internal/tuner"
	"micrograd/internal/workloads"
)

// DefaultMaxEpochs bounds the tuning run when the caller does not specify a
// limit. The paper's clones converge in 5-52 epochs.
const DefaultMaxEpochs = 60

// DefaultTargetAccuracy is the paper's 99% accuracy target.
const DefaultTargetAccuracy = 0.99

// Options configures a cloning run.
type Options struct {
	// Tuner is the tuning mechanism; nil means gradient descent with default
	// parameters.
	Tuner tuner.Tuner
	// Platform is the evaluation platform the clone is tuned against.
	Platform platform.Platform
	// EvalOptions controls each evaluation (dynamic instruction budget, seed).
	EvalOptions platform.EvalOptions
	// LoopSize is the clone's static size; zero means the generator default
	// (≈500 instructions, as in the paper).
	LoopSize int
	// Seed drives the tuner's and generator's stochastic choices.
	Seed int64
	// MaxEpochs bounds tuning; zero means DefaultMaxEpochs.
	MaxEpochs int
	// TargetAccuracy stops tuning once the mean per-metric accuracy reaches
	// this value; zero means DefaultTargetAccuracy.
	TargetAccuracy float64
	// Metrics restricts the cloning targets; nil means the paper's nine
	// radar metrics (instruction distribution, miss rates, mispredictions,
	// IPC).
	Metrics []string
	// Parallel is the number of candidate evaluations run concurrently
	// inside each tuning epoch. Values <= 1 keep the serial path. Results
	// are bit-identical either way (evaluation is a pure function of the
	// configuration and results are folded in submission order); parallel
	// runs additionally need NewPlatform so each worker gets its own
	// platform instance: Platform is the first worker's.
	Parallel int
	// NewPlatform creates an independent evaluation platform for one more
	// worker; a parallel run calls it Parallel-1 times. Required when
	// Parallel > 1 because Platform implementations are not
	// concurrency-safe.
	NewPlatform func() (platform.Platform, error)
	// Memo, when set, is a shared evaluation-result cache: concurrent or
	// successive runs pointed at the same group reuse each other's
	// evaluations. Nil keeps today's behavior (a private cache per run).
	Memo *evalcache.Group
	// Synth, when set, is a shared caching synthesizer; its options
	// override LoopSize and Seed for program generation so that every run
	// sharing it (and a Memo group) agrees on kernel content identity.
	Synth *microprobe.CachingSynthesizer
	// OnEpoch, when set, observes each tuning epoch as it completes. It is
	// called synchronously on the tuning goroutine.
	OnEpoch func(tuner.EpochRecord)
}

// normalized fills in defaults.
func (o Options) normalized() Options {
	if o.Tuner == nil {
		o.Tuner = tuner.NewGradientDescent()
	}
	if o.MaxEpochs <= 0 {
		o.MaxEpochs = DefaultMaxEpochs
	}
	if o.TargetAccuracy <= 0 {
		o.TargetAccuracy = DefaultTargetAccuracy
	}
	if len(o.Metrics) == 0 {
		o.Metrics = metrics.CloningMetricNames()
	}
	return o
}

// Report is the outcome of one cloning run.
type Report struct {
	// Name identifies the cloned application.
	Name string
	// Target is the reference metric vector the clone was tuned towards.
	Target metrics.Vector
	// Clone is the metric vector of the best clone found.
	Clone metrics.Vector
	// Accuracy maps each targeted metric to the clone/target ratio (the
	// paper's radar-axis value; 1.0 is a perfect match).
	Accuracy map[string]float64
	// MeanAccuracy is 1 minus the mean relative error across the targeted
	// metrics.
	MeanAccuracy float64
	// Epochs is the number of tuning epochs used.
	Epochs int
	// Evaluations is the number of platform evaluations consumed.
	Evaluations int
	// Config is the best knob configuration.
	Config knobs.Config
	// Program is the generated clone.
	Program *program.Program
	// TunerResult carries the full epoch progression for reporting.
	TunerResult tuner.Result
}

// TargetLossFor converts a mean-accuracy target over n metrics into the
// equivalent log-loss threshold used for early stopping.
func TargetLossFor(accuracy float64, n int) float64 {
	if accuracy <= 0 || accuracy >= 1 {
		return tuner.NoTargetLoss
	}
	lr := math.Log(1 / accuracy)
	return float64(n) * lr * lr
}

// Clone tunes a synthetic workload to match the target metric vector. The
// loss skips any metric the target lacks, so Clone fails before tuning when
// a caller-set metric is missing from the target, or when the target has
// none of the metrics the loss reads: tuning towards nothing would report a
// perfect clone.
func Clone(ctx context.Context, name string, target metrics.Vector, opts Options) (Report, error) {
	callerMetrics := len(opts.Metrics) > 0
	opts = opts.normalized()
	if opts.Platform == nil {
		return Report{}, fmt.Errorf("cloning: no evaluation platform configured")
	}
	if len(target) == 0 {
		return Report{}, fmt.Errorf("cloning: empty target metric vector")
	}
	covered := false
	for _, m := range opts.Metrics {
		if _, ok := target[m]; ok {
			covered = true
		} else if callerMetrics {
			return Report{}, fmt.Errorf("cloning: metric %q is not in the target", m)
		}
	}
	if !covered {
		return Report{}, fmt.Errorf("cloning: the target has none of the cloned metrics %s", strings.Join(opts.Metrics, ", "))
	}

	// The synthesizer is pure per call, so one memoizing instance is shared
	// by every worker; platforms are stateful and get one session per
	// worker.
	res, prog, evaluations, err := tuner.TunePlatform(ctx, opts.Tuner, tuner.PlatformOptions{
		Name:        "clone-" + name,
		Platform:    opts.Platform,
		Parallel:    opts.Parallel,
		NewPlatform: opts.NewPlatform,
		Synth:       opts.Synth,
		LoopSize:    opts.LoopSize,
		Options:     opts.EvalOptions,
		Memo:        opts.Memo,
	}, tuner.Problem{
		Space:      knobs.DefaultSpace(),
		Loss:       metrics.CloneLoss{Target: target, Metrics: opts.Metrics},
		MaxEpochs:  opts.MaxEpochs,
		TargetLoss: TargetLossFor(opts.TargetAccuracy, len(opts.Metrics)),
		Seed:       opts.Seed,
		OnEpoch:    opts.OnEpoch,
	})
	if err != nil {
		return Report{}, fmt.Errorf("cloning: %w", err)
	}
	prog.Meta["use_case"] = "workload-cloning"
	prog.Meta["cloned_application"] = name

	rep := Report{
		Name:         name,
		Target:       target.Clone(),
		Clone:        res.BestMetrics.Clone(),
		Accuracy:     make(map[string]float64, len(opts.Metrics)),
		MeanAccuracy: metrics.MeanAccuracy(res.BestMetrics, target, opts.Metrics),
		Epochs:       len(res.Epochs),
		Evaluations:  evaluations,
		Config:       res.Best,
		Program:      prog,
		TunerResult:  res,
	}
	for _, m := range opts.Metrics {
		got, okG := res.BestMetrics[m]
		want, okW := target[m]
		if okG && okW {
			rep.Accuracy[m] = metrics.AccuracyRatio(got, want)
		}
	}
	return rep, nil
}

// CloneBenchmark measures the reference metrics of a benchmark's dominant
// phase on the options' platform and clones it.
func CloneBenchmark(ctx context.Context, bm workloads.Benchmark, opts Options) (Report, error) {
	if opts.Platform == nil {
		return Report{}, fmt.Errorf("cloning: no evaluation platform configured")
	}
	if err := bm.Validate(); err != nil {
		return Report{}, err
	}
	target, err := bm.Reference(opts.Platform, opts.EvalOptions)
	if err != nil {
		return Report{}, fmt.Errorf("cloning: measuring reference %s: %w", bm.Name, err)
	}
	return Clone(ctx, bm.Name, target, opts)
}

// CloneSimpoints clones every phase (simpoint) of a benchmark individually
// and returns the per-phase reports keyed by phase name, mirroring the
// paper's "one clone per interesting phase" input mode.
func CloneSimpoints(ctx context.Context, bm workloads.Benchmark, opts Options) (map[string]Report, error) {
	if opts.Platform == nil {
		return nil, fmt.Errorf("cloning: no evaluation platform configured")
	}
	if err := bm.Validate(); err != nil {
		return nil, err
	}
	refs, err := bm.PhaseReferences(opts.Platform, opts.EvalOptions)
	if err != nil {
		return nil, fmt.Errorf("cloning: measuring %s phases: %w", bm.Name, err)
	}
	out := make(map[string]Report, len(bm.Phases))
	for _, ph := range bm.Phases {
		rep, err := Clone(ctx, fmt.Sprintf("%s-%s", bm.Name, ph.Name), refs[ph.Name], opts)
		if err != nil {
			return nil, err
		}
		out[ph.Name] = rep
	}
	return out, nil
}
