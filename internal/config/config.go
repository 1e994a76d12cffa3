// Package config defines MicroGrad's framework input configuration
// (§III-A of the paper): a single JSON document that selects the use case,
// the target evaluation platform and architecture configuration, the tuning
// mechanism, the accuracy requirements and the application (or explicit
// metric values) to clone or the metric to stress.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"micrograd/internal/experiments"
	"micrograd/internal/stress"
)

// Use cases.
const (
	UseCaseCloning = "cloning"
	UseCaseStress  = "stress"
)

// Config is the framework input document.
type Config struct {
	// UseCase selects "cloning" or "stress".
	UseCase string `json:"use_case"`
	// Core selects the architecture configuration ("small" or "large",
	// Table II).
	Core string `json:"core"`
	// Tuner selects the tuning mechanism, one of tuner.Names() but the
	// halving-* wrappers, which need an evaluation budget; default "gd".
	Tuner string `json:"tuner"`
	// MaxEpochs bounds tuning (0 = use-case default).
	MaxEpochs int `json:"max_epochs"`
	// TargetAccuracy is the cloning accuracy requirement (0 = default 0.99).
	TargetAccuracy float64 `json:"target_accuracy"`
	// DynamicInstructions is the per-evaluation simulation length
	// (0 = platform default).
	DynamicInstructions int `json:"dynamic_instructions"`
	// LoopSize is the generated kernel's static size (0 = default ≈500).
	LoopSize int `json:"loop_size"`
	// Seed drives all stochastic choices.
	Seed int64 `json:"seed"`
	// Parallel is the number of candidate evaluations run concurrently per
	// tuning epoch (the parallel evaluation engine's worker count). Values
	// <= 1 run serially; results are bit-identical at any worker count.
	Parallel int `json:"parallel,omitempty"`

	// Benchmark names the reference application to clone (one of the
	// built-in SPEC-like workloads). Mutually exclusive with TargetMetrics.
	Benchmark string `json:"benchmark,omitempty"`
	// CloneSimpoints clones each phase of the benchmark separately.
	CloneSimpoints bool `json:"clone_simpoints,omitempty"`
	// TargetMetrics provides the metric values to clone directly (the
	// paper's "numerical values of the application's metrics" input mode).
	TargetMetrics map[string]float64 `json:"target_metrics,omitempty"`
	// Metrics restricts which metrics the clone must match (empty = the
	// default nine cloning metrics).
	Metrics []string `json:"metrics,omitempty"`

	// StressKind selects "perf-virus", "power-virus", "voltage-noise-virus"
	// or "thermal-virus"; with StressMetric set, any other name labels the
	// run. The chip kinds are rejected: the framework runs on one core.
	StressKind string `json:"stress_kind,omitempty"`
	// StressMetric optionally overrides the stressed metric; Maximize sets
	// the direction for custom metrics.
	StressMetric string `json:"stress_metric,omitempty"`
	Maximize     bool   `json:"maximize,omitempty"`

	// OutputDir is where artifacts (kernel assembly, C kernel, knob and
	// metric dumps) are written; empty disables artifact writing.
	OutputDir string `json:"output_dir,omitempty"`
}

// Default returns the configuration defaults shared by both use cases.
func Default() Config {
	return Config{
		UseCase:        UseCaseCloning,
		Core:           "large",
		Tuner:          "gd",
		TargetAccuracy: 0.99,
		Seed:           1,
	}
}

// Parse reads a JSON configuration, applying defaults for absent fields.
func Parse(r io.Reader) (Config, error) {
	cfg := Default()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("config: parsing: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Load reads a JSON configuration file.
func Load(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return Parse(f)
}

// Validate checks the configuration for consistency. The fields it shares
// with an mgbench or mgserve run go through experiments.Request.Validate on
// one core and with no evaluation budget, so a chip kind, a halving tuner
// and an unknown benchmark fail as they would there.
func (c Config) Validate() error {
	req := experiments.Request{
		Instructions: c.DynamicInstructions,
		Epochs:       c.MaxEpochs,
		Parallel:     c.Parallel,
		Tuner:        c.Tuner,
		Core:         c.Core,
		Cores:        1,
	}
	if c.Benchmark != "" {
		req.Benchmarks = []string{c.Benchmark}
	}
	switch c.UseCase {
	case UseCaseCloning:
		if c.Benchmark == "" && len(c.TargetMetrics) == 0 {
			return fmt.Errorf("config: cloning needs a benchmark or explicit target_metrics")
		}
		if c.Benchmark != "" && len(c.TargetMetrics) > 0 {
			return fmt.Errorf("config: benchmark and target_metrics are mutually exclusive")
		}
	case UseCaseStress:
		if c.StressKind == "" && c.StressMetric == "" {
			return fmt.Errorf("config: stress needs stress_kind or stress_metric")
		}
		// With a stress_metric, an unknown stress_kind only labels the run.
		if _, err := stress.KindByName(c.StressKind); err == nil {
			req.Kind = c.StressKind
		} else if c.StressMetric == "" {
			return fmt.Errorf("config: %w", err)
		}
	default:
		return fmt.Errorf("config: unknown use_case %q (want %q or %q)", c.UseCase, UseCaseCloning, UseCaseStress)
	}
	if c.Core == "" || c.Tuner == "" {
		return fmt.Errorf("config: core %q and tuner %q must both be named", c.Core, c.Tuner)
	}
	if err := req.Validate(); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if c.LoopSize < 0 {
		return fmt.Errorf("config: negative loop_size %d", c.LoopSize)
	}
	if c.TargetAccuracy < 0 || c.TargetAccuracy > 1 {
		return fmt.Errorf("config: target_accuracy %v outside [0,1]", c.TargetAccuracy)
	}
	return nil
}
