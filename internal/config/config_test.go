package config

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseCloningConfig(t *testing.T) {
	doc := `{
		"use_case": "cloning",
		"core": "large",
		"tuner": "gd",
		"benchmark": "mcf",
		"max_epochs": 40,
		"target_accuracy": 0.99,
		"seed": 3
	}`
	cfg, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Benchmark != "mcf" || cfg.MaxEpochs != 40 || cfg.Core != "large" {
		t.Errorf("parsed config wrong: %+v", cfg)
	}
}

func TestParseStressConfig(t *testing.T) {
	doc := `{
		"use_case": "stress",
		"core": "small",
		"stress_kind": "power-virus",
		"max_epochs": 25
	}`
	cfg, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.StressKind != "power-virus" || cfg.Core != "small" {
		t.Errorf("parsed config wrong: %+v", cfg)
	}
	// Defaults applied for unspecified fields.
	if cfg.Tuner != "gd" || cfg.TargetAccuracy != 0.99 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse(strings.NewReader(`{"use_case":"cloning","benchmark":"mcf","frobnicate":1}`)); err == nil {
		t.Error("unknown fields should be rejected")
	}
	if _, err := Parse(strings.NewReader(`not json`)); err == nil {
		t.Error("malformed JSON should be rejected")
	}
}

func TestValidate(t *testing.T) {
	base := Default()
	base.Benchmark = "mcf"
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(c *Config)
	}{
		{"unknown use case", func(c *Config) { c.UseCase = "foo" }},
		{"cloning without target", func(c *Config) { c.Benchmark = ""; c.TargetMetrics = nil }},
		{"both benchmark and metrics", func(c *Config) { c.TargetMetrics = map[string]float64{"ipc": 1} }},
		{"unknown core", func(c *Config) { c.Core = "medium" }},
		{"unknown tuner", func(c *Config) { c.Tuner = "hillclimb" }},
		{"negative epochs", func(c *Config) { c.MaxEpochs = -1 }},
		{"bad accuracy", func(c *Config) { c.TargetAccuracy = 1.5 }},
		{"empty tuner", func(c *Config) { c.Tuner = "" }},
		{"halving tuner", func(c *Config) { c.Tuner = "halving-gd" }},
		{"chip stress kind", func(c *Config) { c.UseCase, c.StressKind = UseCaseStress, "corun-noise-virus" }},
		{"chip stress kind with metric", func(c *Config) {
			c.UseCase, c.StressKind, c.StressMetric = UseCaseStress, "spatial", "ipc"
		}},
		{"unknown stress kind", func(c *Config) { c.UseCase, c.StressKind = UseCaseStress, "no-such-virus" }},
		{"empty core", func(c *Config) { c.Core = "" }},
		{"negative instructions", func(c *Config) { c.DynamicInstructions = -1 }},
		{"negative parallel", func(c *Config) { c.Parallel = -2 }},
		{"negative loop size", func(c *Config) { c.LoopSize = -1 }},
		{"unknown benchmark", func(c *Config) { c.Benchmark = "nosuch" }},
		// The stress use case sets a request kind; the shared rules still hold.
		{"dvfs stress kind", func(c *Config) { c.UseCase, c.StressKind = UseCaseStress, "dvfs-noise-virus" }},
		{"hotspot alias", func(c *Config) { c.UseCase, c.StressKind = UseCaseStress, "hotspot" }},
		{"halving tuner on stress", func(c *Config) { c.UseCase, c.StressKind, c.Tuner = UseCaseStress, "power-virus", "halving-cmaes" }},
		{"halving tuner on a custom metric", func(c *Config) {
			c.UseCase, c.StressKind, c.StressMetric, c.Tuner = UseCaseStress, "my-virus", "ipc", "halving-gd"
		}},
		{"unknown tuner on stress", func(c *Config) { c.UseCase, c.StressKind, c.Tuner = UseCaseStress, "power-virus", "hillclimb" }},
		{"unknown core on stress", func(c *Config) { c.UseCase, c.StressKind, c.Core = UseCaseStress, "power-virus", "medium" }},
		{"negative epochs on stress", func(c *Config) { c.UseCase, c.StressKind, c.MaxEpochs = UseCaseStress, "power-virus", -3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default()
			cfg.Benchmark = "mcf"
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("expected validation error")
			}
		})
	}
	stressNoKind := Default()
	stressNoKind.UseCase = UseCaseStress
	if err := stressNoKind.Validate(); err == nil {
		t.Error("stress without kind or metric should be rejected")
	}
	stressMetricOnly := stressNoKind
	stressMetricOnly.StressMetric = "ipc"
	if err := stressMetricOnly.Validate(); err != nil {
		t.Errorf("stress with explicit metric should validate: %v", err)
	}
	customKind := stressMetricOnly
	customKind.StressKind = "my-virus"
	if err := customKind.Validate(); err != nil {
		t.Errorf("a custom kind name with an explicit metric should validate: %v", err)
	}
}

func TestLoadAndWriteRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	cfg := Default()
	cfg.UseCase = UseCaseStress
	cfg.StressKind = "perf-virus"
	cfg.MaxEpochs = 12

	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.StressKind != "perf-virus" || loaded.MaxEpochs != 12 {
		t.Errorf("round trip lost data: %+v", loaded)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}
