// Package core is the MicroGrad framework front-end: it wires the framework
// inputs (internal/config) to the evaluation platform, tuning mechanism and
// use case, runs the tuning loop, and produces the framework outputs the
// paper lists in §III-F — the clone or stress-test kernel, the knob values,
// the measured metrics and the epoch progression.
package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"micrograd/internal/cloning"
	"micrograd/internal/config"
	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/platform"
	"micrograd/internal/program"
	"micrograd/internal/stress"
	"micrograd/internal/tuner"
	"micrograd/internal/workloads"
)

// Framework is one configured MicroGrad instance.
type Framework struct {
	cfg  config.Config
	spec platform.CoreSpec
	plat *platform.SimPlatform
	tun  tuner.Tuner
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
	plat, err := platform.NewSimPlatform(spec)
	if err != nil {
		return nil, err
	}
	tun, err := tuner.ByName(cfg.Tuner)
	if err != nil {
		return nil, err
	}
	return &Framework{cfg: cfg, spec: spec, plat: plat, tun: tun}, nil
}

// newPlatform creates an additional platform instance for one worker of the
// parallel evaluation engine.
func (f *Framework) newPlatform() (platform.Platform, error) {
	return platform.NewSimPlatform(f.spec)
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

// cloningOptions assembles the cloning options from the configuration.
func (f *Framework) cloningOptions() cloning.Options {
	return cloning.Options{
		Tuner:          f.tun,
		Platform:       f.plat,
		EvalOptions:    platform.EvalOptions{DynamicInstructions: f.cfg.DynamicInstructions, Seed: f.cfg.Seed},
		LoopSize:       f.cfg.LoopSize,
		Seed:           f.cfg.Seed,
		MaxEpochs:      f.cfg.MaxEpochs,
		TargetAccuracy: f.cfg.TargetAccuracy,
		Metrics:        f.cfg.Metrics,
		Parallel:       f.cfg.Parallel,
		NewPlatform:    f.newPlatform,
	}
}

func (f *Framework) runCloning(ctx context.Context) (*Output, error) {
	opts := f.cloningOptions()
	out := &Output{UseCase: config.UseCaseCloning, CloneReports: map[string]cloning.Report{}}

	switch {
	case len(f.cfg.TargetMetrics) > 0:
		target := metrics.Vector(f.cfg.TargetMetrics)
		rep, err := cloning.Clone(ctx, "target", target, opts)
		if err != nil {
			return nil, err
		}
		out.Name = "target"
		out.CloneReports["target"] = rep
		fillFromClone(out, rep)
	case f.cfg.CloneSimpoints:
		bm, err := workloads.ByName(f.cfg.Benchmark)
		if err != nil {
			return nil, err
		}
		reports, err := cloning.CloneSimpoints(ctx, bm, opts)
		if err != nil {
			return nil, err
		}
		out.Name = bm.Name
		var dominant cloning.Report
		dominantWeight := -1.0
		evaluations := 0
		for _, ph := range bm.Phases {
			rep := reports[ph.Name]
			out.CloneReports[ph.Name] = rep
			evaluations += rep.Evaluations
			if ph.Weight > dominantWeight {
				dominantWeight = ph.Weight
				dominant = rep
			}
		}
		// The dominant phase stands for the run; every phase's tuning counts.
		fillFromClone(out, dominant)
		out.Evaluations = evaluations
	default:
		bm, err := workloads.ByName(f.cfg.Benchmark)
		if err != nil {
			return nil, err
		}
		rep, err := cloning.CloneBenchmark(ctx, bm, opts)
		if err != nil {
			return nil, err
		}
		out.Name = bm.Name
		out.CloneReports[bm.DominantPhase().Name] = rep
		fillFromClone(out, rep)
	}
	return out, nil
}

// fillFromClone populates the generic output fields from a cloning report.
func fillFromClone(out *Output, rep cloning.Report) {
	out.Program = rep.Program
	out.Knobs = rep.Config
	out.Metrics = rep.Clone
	out.Progression = rep.TunerResult.Epochs
	out.Evaluations = rep.Evaluations
}

func (f *Framework) runStress(ctx context.Context) (*Output, error) {
	kind := stress.Kind(f.cfg.StressKind)
	opts := stress.Options{
		Tuner:       f.tun,
		Platform:    f.plat,
		EvalOptions: platform.EvalOptions{DynamicInstructions: f.cfg.DynamicInstructions, Seed: f.cfg.Seed},
		LoopSize:    f.cfg.LoopSize,
		Seed:        f.cfg.Seed,
		MaxEpochs:   f.cfg.MaxEpochs,
		Metric:      f.cfg.StressMetric,
		Maximize:    f.cfg.Maximize,
		Parallel:    f.cfg.Parallel,
		NewPlatform: f.newPlatform,
	}
	rep, err := stress.Run(ctx, kind, opts)
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
