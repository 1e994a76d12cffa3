// Package core is the MicroGrad framework front-end: it turns the framework
// inputs (internal/config) into an experiments.Budget, builds the use
// case's options through Budget.CloneOptions or Budget.StressOptions — the
// same path the experiments and mgserve jobs take — runs the tuning loop,
// and produces the framework outputs the paper lists in §III-F: the clone
// or stress-test kernel, the knob values, the measured metrics and the
// epoch progression.
package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"micrograd/internal/cloning"
	"micrograd/internal/config"
	"micrograd/internal/experiments"
	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/platform"
	"micrograd/internal/program"
	"micrograd/internal/stress"
	"micrograd/internal/tuner"
	"micrograd/internal/workloads"
)

// Framework is one configured MicroGrad instance: the validated
// configuration and the core it runs on. Each run builds its platforms and
// tuner through the experiments budget.
type Framework struct {
	cfg  config.Config
	spec platform.CoreSpec
}

// New builds a framework from a validated configuration.
func New(cfg config.Config) (*Framework, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec, err := platform.ByName(cfg.Core)
	if err != nil {
		return nil, err
	}
	return &Framework{cfg: cfg, spec: spec}, nil
}

// newPlatform creates one platform instance of the configured core: the
// first of a run, or one more worker of the parallel evaluation engine.
func (f *Framework) newPlatform() (platform.Platform, error) {
	return platform.NewSimPlatform(f.spec)
}

// budget is the configuration as an experiments budget, as given, not
// normalized: a zero max_epochs still means the use case's own default
// (cloning.DefaultMaxEpochs, stress.DefaultMaxEpochs).
func (f *Framework) budget() experiments.Budget {
	return experiments.Budget{
		DynamicInstructions: f.cfg.DynamicInstructions,
		CloneEpochs:         f.cfg.MaxEpochs,
		StressEpochs:        f.cfg.MaxEpochs,
		LoopSize:            f.cfg.LoopSize,
		Seed:                f.cfg.Seed,
		Tuner:               f.cfg.Tuner,
	}
}

// Output bundles the framework outputs of one run (§III-F): the generated
// kernel, its knob configuration, the measured metrics, and the per-epoch
// progression, plus the use-case specific report.
type Output struct {
	// UseCase is the configured use case.
	UseCase string
	// Name identifies the run (benchmark name or stress kind).
	Name string
	// Program is the generated clone / stress kernel.
	Program *program.Program
	// Knobs is the final knob configuration.
	Knobs knobs.Config
	// Metrics is the kernel's measured metric vector.
	Metrics metrics.Vector
	// Progression is the best-loss-so-far per epoch.
	Progression []tuner.EpochRecord
	// Evaluations is the number of platform evaluations consumed.
	Evaluations int

	// CloneReports holds the cloning report(s) (one per phase when simpoint
	// cloning is enabled) and is nil for stress runs.
	CloneReports map[string]cloning.Report
	// StressReport holds the stress report and is nil for cloning runs.
	StressReport *stress.Report
}

// Run executes the configured use case.
func (f *Framework) Run(ctx context.Context) (*Output, error) {
	switch f.cfg.UseCase {
	case config.UseCaseCloning:
		return f.runCloning(ctx)
	case config.UseCaseStress:
		return f.runStress(ctx)
	default:
		return nil, fmt.Errorf("core: unknown use case %q", f.cfg.UseCase)
	}
}

// runCloning takes its options from experiments.Budget.CloneOptions, the
// one cloning path; the accuracy target and the metric subset are the
// configuration's own.
func (f *Framework) runCloning(ctx context.Context) (*Output, error) {
	name := f.cfg.Benchmark
	if len(f.cfg.TargetMetrics) > 0 {
		name = "target"
	}
	opts, err := f.budget().CloneOptions(f.newPlatform, f.cfg.Parallel, name)
	if err != nil {
		return nil, err
	}
	opts.TargetAccuracy, opts.Metrics = f.cfg.TargetAccuracy, f.cfg.Metrics
	out := &Output{UseCase: config.UseCaseCloning, Name: name, CloneReports: map[string]cloning.Report{}}
	if len(f.cfg.TargetMetrics) > 0 {
		rep, err := cloning.Clone(ctx, name, metrics.Vector(f.cfg.TargetMetrics), opts)
		if err != nil {
			return nil, err
		}
		out.CloneReports[name] = rep
		return fillFromClone(out, rep), nil
	}
	bm, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	if !f.cfg.CloneSimpoints {
		rep, err := cloning.CloneBenchmark(ctx, bm, opts)
		if err != nil {
			return nil, err
		}
		out.CloneReports[bm.DominantPhase().Name] = rep
		return fillFromClone(out, rep), nil
	}
	if out.CloneReports, err = cloning.CloneSimpoints(ctx, bm, opts); err != nil {
		return nil, err
	}
	// The dominant phase stands for the run; every phase's tuning counts.
	fillFromClone(out, out.CloneReports[bm.DominantPhase().Name])
	out.Evaluations = 0
	for _, rep := range out.CloneReports {
		out.Evaluations += rep.Evaluations
	}
	return out, nil
}

// fillFromClone populates the generic output fields from a cloning report
// and returns out.
func fillFromClone(out *Output, rep cloning.Report) *Output {
	out.Program = rep.Program
	out.Knobs = rep.Config
	out.Metrics = rep.Clone
	out.Progression = rep.TunerResult.Epochs
	out.Evaluations = rep.Evaluations
	return out
}

// runStress takes its options from experiments.Budget.StressOptions, the
// one stress path.
func (f *Framework) runStress(ctx context.Context) (*Output, error) {
	opts, err := f.budget().StressOptions(f.newPlatform, f.cfg.Parallel, f.cfg.StressKind)
	if err != nil {
		return nil, err
	}
	opts.Metric, opts.Maximize = f.cfg.StressMetric, f.cfg.Maximize
	rep, err := stress.Run(ctx, stress.Kind(f.cfg.StressKind), opts)
	if err != nil {
		return nil, err
	}
	out := &Output{
		UseCase:      config.UseCaseStress,
		Name:         string(rep.Kind),
		Program:      rep.Program,
		Knobs:        rep.Config,
		Metrics:      rep.BestMetrics,
		Progression:  rep.TunerResult.Epochs,
		Evaluations:  rep.Evaluations,
		StressReport: &rep,
	}
	return out, nil
}

// WriteArtifacts writes the framework outputs into dir: the kernel as RISC-V
// assembly (<name>.S) and as a portable C kernel (<name>.c), the knob values
// (<name>.knobs.txt), the measured metrics (<name>.metrics.txt) and the
// epoch progression (<name>.progression.csv). It returns the paths written.
func (o *Output) WriteArtifacts(dir string) ([]string, error) {
	if o.Program == nil {
		return nil, fmt.Errorf("core: output has no program to write")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	base := strings.ReplaceAll(o.Name, string(os.PathSeparator), "_")
	if base == "" {
		base = "kernel"
	}
	var written []string

	write := func(name string, fill func(f *os.File) error) error {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := fill(f); err != nil {
			return err
		}
		written = append(written, path)
		return nil
	}

	if err := write(base+".S", func(f *os.File) error { return o.Program.EmitAssembly(f) }); err != nil {
		return written, err
	}
	if err := write(base+".c", func(f *os.File) error { return o.Program.EmitC(f) }); err != nil {
		return written, err
	}
	if err := write(base+".knobs.txt", func(f *os.File) error {
		_, err := fmt.Fprintln(f, o.Knobs.String())
		return err
	}); err != nil {
		return written, err
	}
	if err := write(base+".metrics.txt", func(f *os.File) error {
		_, err := fmt.Fprintln(f, o.Metrics.String())
		return err
	}); err != nil {
		return written, err
	}
	if err := write(base+".progression.csv", func(f *os.File) error {
		if _, err := fmt.Fprintln(f, "epoch,best_loss,epoch_loss,evaluations"); err != nil {
			return err
		}
		for _, e := range o.Progression {
			if _, err := fmt.Fprintf(f, "%d,%g,%g,%d\n", e.Epoch, e.BestLoss, e.EpochLoss, e.Evaluations); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return written, err
	}
	return written, nil
}
