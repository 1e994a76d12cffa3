// Package micrograd is the public facade of MicroGrad-Go, a from-scratch Go
// reproduction of "MicroGrad: A Centralized Framework for Workload Cloning
// and Stress Testing" (ISPASS 2021).
//
// The package re-exports the framework's user-facing API from the internal
// packages so that applications can depend on a single import:
//
//   - configure and run the framework end to end (RunConfig),
//   - clone a reference application's behaviour into a synthetic kernel
//     (CloneBenchmark, Clone),
//   - generate performance and power viruses (StressTest),
//   - evaluate arbitrary knob configurations on the built-in Gem5/McPAT-like
//     simulation platforms (NewPlatform, Synthesize), and
//   - reproduce the paper's tables and figures (the Experiments... helpers).
//
// See README.md for a quickstart and DESIGN.md for the system inventory.
package micrograd

import (
	"context"

	"micrograd/internal/cloning"
	"micrograd/internal/config"
	"micrograd/internal/core"
	"micrograd/internal/experiments"
	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/microprobe"
	"micrograd/internal/platform"
	"micrograd/internal/program"
	"micrograd/internal/stress"
	"micrograd/internal/tuner"
	"micrograd/internal/workloads"
)

// Re-exported types. These aliases are the supported public surface; the
// internal packages they point to carry the full documentation.
type (
	// Config is the framework input configuration (use case, core, tuner,
	// budgets, target application or stress goal).
	Config = config.Config
	// Output is the framework output bundle (kernel, knobs, metrics,
	// progression).
	Output = core.Output

	// CloneOptions and CloneReport parameterize and describe workload
	// cloning runs.
	CloneOptions = cloning.Options
	CloneReport  = cloning.Report
	// StressOptions and StressReport parameterize and describe stress runs.
	StressOptions = stress.Options
	StressReport  = stress.Report
	// StressKind selects the stress goal (PerfVirus, PowerVirus).
	StressKind = stress.Kind

	// Benchmark is a reference application (SPEC-INT-like synthetic model).
	Benchmark = workloads.Benchmark
	// MetricVector is a named set of measured metrics.
	MetricVector = metrics.Vector
	// KnobSpace and KnobConfig are the abstract workload model.
	KnobSpace  = knobs.Space
	KnobConfig = knobs.Config
	// Program is a generated synthetic test case.
	Program = program.Program

	// Platform is the evaluation boundary; SimPlatform is the built-in
	// Gem5+McPAT substitute; EvalOptions controls one evaluation.
	Platform    = platform.Platform
	SimPlatform = platform.SimPlatform
	EvalOptions = platform.EvalOptions
	// EvalRequest/EvalResponse are the evaluation API: one request in, one
	// response out, on any Platform. EvalSession is the reusable front door
	// that also synthesizes (and memoizes) kernels from knob configurations.
	EvalRequest  = platform.EvalRequest
	EvalResponse = platform.EvalResponse
	EvalDetail   = platform.EvalDetail
	EvalSession  = platform.EvalSession
	// KernelSynthesizer is the memoizing kernel synthesizer EvalSessions use.
	KernelSynthesizer = microprobe.CachingSynthesizer
	// CoreSpec describes a core configuration (Table II).
	CoreSpec = platform.CoreSpec

	// Tuner is a tuning mechanism; TunerResult its outcome.
	Tuner       = tuner.Tuner
	TunerResult = tuner.Result

	// ExperimentBudget scales the paper-reproduction experiment runners.
	ExperimentBudget = experiments.Budget
)

// Stress kinds.
const (
	PerfVirus  = stress.PerfVirus
	PowerVirus = stress.PowerVirus
)

// Evaluation detail levels.
const (
	DetailMetrics = platform.DetailMetrics
	DetailTrace   = platform.DetailTrace
)

// DefaultConfig returns the framework configuration defaults.
func DefaultConfig() Config { return config.Default() }

// RunConfig validates cfg and runs its use case.
func RunConfig(ctx context.Context, cfg Config) (*Output, error) { return core.Run(ctx, cfg) }

// Benchmarks returns the built-in reference application suite (the SPEC INT
// CPU2006 stand-ins).
func Benchmarks() []Benchmark { return workloads.SPECInt2006() }

// BenchmarkByName returns one reference application by name.
func BenchmarkByName(name string) (Benchmark, error) { return workloads.ByName(name) }

// Cores returns the built-in core configurations (Table II).
func Cores() []CoreSpec { return platform.Cores() }

// CoreByName returns the named core configuration ("small", "large").
func CoreByName(name string) (CoreSpec, error) { return platform.ByName(name) }

// NewPlatform instantiates the simulation platform for the named core.
func NewPlatform(coreName string) (*SimPlatform, error) {
	spec, err := platform.ByName(coreName)
	if err != nil {
		return nil, err
	}
	return platform.NewSimPlatform(spec)
}

// DefaultKnobSpace returns the full cloning knob space (Listing 1).
func DefaultKnobSpace() *KnobSpace { return knobs.DefaultSpace() }

// StressKnobSpace returns the knob space used for power-virus generation.
func StressKnobSpace() *KnobSpace { return knobs.StressSpace() }

// Synthesize generates a synthetic test case for a knob configuration by
// the passes of the paper's Listing 2, at the given static loop size
// (0 = ~500).
func Synthesize(name string, cfg KnobConfig, loopSize int, seed int64) (*Program, error) {
	syn := microprobe.NewSynthesizer(microprobe.Options{LoopSize: loopSize, Seed: seed})
	return syn.Synthesize(name, cfg)
}

// NewEvalSession binds a platform to a fresh memoizing kernel synthesizer
// and returns the reusable evaluation session that serves EvalRequests.
func NewEvalSession(plat Platform, loopSize int, seed int64) *EvalSession {
	syn := microprobe.NewCachingSynthesizer(microprobe.Options{LoopSize: loopSize, Seed: seed})
	return platform.NewEvalSession(plat, syn)
}

// Clone tunes a synthetic workload to match an explicitly provided metric
// vector.
func Clone(ctx context.Context, name string, target MetricVector, opts CloneOptions) (CloneReport, error) {
	return cloning.Clone(ctx, name, target, opts)
}

// CloneBenchmark measures a reference application on the options' platform
// and clones it.
func CloneBenchmark(ctx context.Context, bm Benchmark, opts CloneOptions) (CloneReport, error) {
	return cloning.CloneBenchmark(ctx, bm, opts)
}

// StressTest generates a stress test of the given kind (PerfVirus,
// PowerVirus, or a custom metric via options).
func StressTest(ctx context.Context, kind StressKind, opts StressOptions) (StressReport, error) {
	return stress.Run(ctx, kind, opts)
}

// GradientDescentTuner returns the paper's gradient-descent tuning mechanism
// with default parameters.
func GradientDescentTuner() Tuner { return tuner.NewGradientDescent() }

// GeneticAlgorithmTuner returns the GA baseline with the paper's Table I
// parameters.
func GeneticAlgorithmTuner() Tuner { return tuner.NewGeneticAlgorithm() }

// CloningMetricNames returns the nine metrics cloning targets by default.
func CloningMetricNames() []string { return metrics.CloningMetricNames() }
