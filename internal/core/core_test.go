package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"micrograd/internal/config"
	"micrograd/internal/metrics"
	"micrograd/internal/platform"
	"micrograd/internal/stress"
	"micrograd/internal/tuner"
)

func cloningConfig() config.Config {
	cfg := config.Default()
	cfg.UseCase = config.UseCaseCloning
	cfg.Core = "large"
	cfg.Benchmark = "hmmer"
	cfg.MaxEpochs = 8
	cfg.DynamicInstructions = 4000
	cfg.LoopSize = 150
	return cfg
}

func stressConfig() config.Config {
	cfg := config.Default()
	cfg.UseCase = config.UseCaseStress
	cfg.Core = "large"
	cfg.StressKind = "perf-virus"
	cfg.MaxEpochs = 6
	cfg.DynamicInstructions = 4000
	cfg.LoopSize = 150
	return cfg
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(config.Config{}); err == nil {
		t.Error("empty config should be rejected")
	}
	bad := cloningConfig()
	bad.Core = "tiny"
	if _, err := New(bad); err == nil {
		t.Error("unknown core should be rejected")
	}
	good, err := New(cloningConfig())
	if err != nil {
		t.Fatal(err)
	}
	if good.cfg.Benchmark != "hmmer" || good.plat == nil {
		t.Error("framework lost its configuration or platform")
	}
}

// TestNewBuildsEveryRegisteredTuner pins that the front-end resolves tuner
// names through the tuner registry: every name it lists validates and
// builds, except the halving wrappers, which the configuration has no
// budget for. The default "gd" comes from config.Default alone, so an
// empty name is rejected like any unknown one.
func TestNewBuildsEveryRegisteredTuner(t *testing.T) {
	for _, name := range tuner.Names() {
		cfg := stressConfig()
		cfg.Tuner = name
		if strings.HasPrefix(name, "halving-") {
			if cfg.Validate() == nil {
				t.Errorf("tuner %q: Validate accepted a tuner that needs a budget", name)
			}
			if _, err := New(cfg); err == nil {
				t.Errorf("tuner %q: New accepted a tuner that needs a budget", name)
			}
			continue
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("tuner %q: Validate: %v", name, err)
			continue
		}
		fw, err := New(cfg)
		if err != nil {
			t.Errorf("tuner %q: New: %v", name, err)
			continue
		}
		ref, err := tuner.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := fw.tun.Name(); got != ref.Name() {
			t.Errorf("tuner %q built %q, want %q", name, got, ref.Name())
		}
	}
	if got := stressConfig().Tuner; got != "gd" {
		t.Errorf("default tuner %q, want gd", got)
	}
	for _, name := range []string{"hillclimb", ""} {
		bad := stressConfig()
		bad.Tuner = name
		if _, err := New(bad); err == nil {
			t.Errorf("tuner %q should be rejected", name)
		}
	}
}

func TestRunCloningUseCase(t *testing.T) {
	fw, err := New(cloningConfig())
	if err != nil {
		t.Fatal(err)
	}
	out, err := fw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.UseCase != config.UseCaseCloning || out.Name != "hmmer" {
		t.Errorf("output identity wrong: %+v", out.Name)
	}
	if out.Program == nil || out.Program.Validate() != nil {
		t.Fatal("output program missing or invalid")
	}
	if len(out.CloneReports) == 0 || out.StressReport != nil {
		t.Error("cloning output should carry clone reports only")
	}
	if out.Metrics[metrics.IPC] <= 0 {
		t.Error("output metrics missing IPC")
	}
	if len(out.Progression) == 0 || out.Evaluations == 0 {
		t.Error("missing progression or accounting")
	}
}

func TestRunCloningDirectTarget(t *testing.T) {
	cfg := cloningConfig()
	cfg.Benchmark = ""
	cfg.TargetMetrics = map[string]float64{
		metrics.FracInteger: 0.5, metrics.FracLoad: 0.2, metrics.FracStore: 0.1,
		metrics.FracBranch: 0.1, metrics.BranchMispredictRate: 0.03,
		metrics.L1IHitRate: 1, metrics.L1DHitRate: 0.95, metrics.L2HitRate: 0.9, metrics.IPC: 2,
	}
	cfg.MaxEpochs = 5
	fw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := fw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "target" {
		t.Errorf("direct-target run name %q", out.Name)
	}
}

func TestRunCloningSimpoints(t *testing.T) {
	cfg := cloningConfig()
	cfg.Benchmark = "gcc"
	cfg.CloneSimpoints = true
	cfg.MaxEpochs = 3
	cfg.DynamicInstructions = 2500
	fw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := fw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.CloneReports) < 2 {
		t.Errorf("simpoint cloning produced %d reports, want one per phase", len(out.CloneReports))
	}
	// Output.Evaluations accounts for every phase's tuning run, not only
	// the dominant phase the other output fields describe.
	sum := 0
	for _, rep := range out.CloneReports {
		sum += rep.Evaluations
	}
	if out.Evaluations != sum {
		t.Errorf("Output.Evaluations = %d, want the %d evaluations of all %d phases", out.Evaluations, sum, len(out.CloneReports))
	}
}

func TestRunStressUseCase(t *testing.T) {
	fw, err := New(stressConfig())
	if err != nil {
		t.Fatal(err)
	}
	out, err := fw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.StressReport == nil || out.StressReport.Kind != "perf-virus" {
		t.Fatal("stress report missing")
	}
	if out.Program == nil {
		t.Fatal("stress kernel missing")
	}
}

func TestWriteArtifacts(t *testing.T) {
	fw, err := New(stressConfig())
	if err != nil {
		t.Fatal(err)
	}
	out, err := fw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths, err := out.WriteArtifacts(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 5 {
		t.Fatalf("expected 5 artifacts, got %d: %v", len(paths), paths)
	}
	wantSuffixes := []string{".S", ".c", ".knobs.txt", ".metrics.txt", ".progression.csv"}
	for _, suffix := range wantSuffixes {
		found := false
		for _, p := range paths {
			if strings.HasSuffix(p, suffix) {
				found = true
				data, err := os.ReadFile(p)
				if err != nil || len(data) == 0 {
					t.Errorf("artifact %s unreadable or empty", p)
				}
			}
		}
		if !found {
			t.Errorf("missing artifact with suffix %s", suffix)
		}
	}
	asm, _ := os.ReadFile(filepath.Join(dir, "perf-virus.S"))
	if !strings.Contains(string(asm), "kernel_loop:") {
		t.Error("assembly artifact missing kernel loop")
	}

	empty := &Output{}
	if _, err := empty.WriteArtifacts(dir); err == nil {
		t.Error("output without program should be rejected")
	}
}

// TestStressRunMatchesHandBuiltOptions pins the stress use case to the
// stress.Options the framework used to assemble field by field from the
// configuration: its output must equal stress.Run under those options, with
// max_epochs 0 still meaning stress.DefaultMaxEpochs, an explicit
// stress_metric and direction, and a parallel fan-out. (The default case
// runs 38 epochs, past the 30 a full experiments budget would allow.)
func TestStressRunMatchesHandBuiltOptions(t *testing.T) {
	base := config.Default()
	base.UseCase, base.StressKind = config.UseCaseStress, "power-virus"
	base.DynamicInstructions, base.LoopSize = 1500, 100
	custom := base
	custom.StressKind, custom.StressMetric, custom.Maximize = "ipc-virus", metrics.IPC, true
	custom.MaxEpochs, custom.Core, custom.Tuner, custom.Seed = 4, "small", "annealing", 7
	parallel := base
	parallel.MaxEpochs, parallel.Parallel = 5, 2
	for _, c := range []struct {
		name string
		cfg  config.Config
	}{{"default", base}, {"stress_metric", custom}, {"parallel", parallel}} {
		cfg := c.cfg
		t.Run(c.name, func(t *testing.T) {
			fw, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fw.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			spec, err := platform.ByName(cfg.Core)
			if err != nil {
				t.Fatal(err)
			}
			plat, err := platform.NewSimPlatform(spec)
			if err != nil {
				t.Fatal(err)
			}
			tun, err := tuner.ByName(cfg.Tuner)
			if err != nil {
				t.Fatal(err)
			}
			want, err := stress.Run(context.Background(), stress.Kind(cfg.StressKind), stress.Options{
				Tuner:       tun,
				Platform:    plat,
				EvalOptions: platform.EvalOptions{DynamicInstructions: cfg.DynamicInstructions, Seed: cfg.Seed},
				LoopSize:    cfg.LoopSize,
				Seed:        cfg.Seed,
				MaxEpochs:   cfg.MaxEpochs,
				Metric:      cfg.StressMetric,
				Maximize:    cfg.Maximize,
				Parallel:    cfg.Parallel,
				NewPlatform: func() (platform.Platform, error) { return platform.NewSimPlatform(spec) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if got.Name != string(want.Kind) || got.Knobs.String() != want.Config.String() {
				t.Errorf("run %q with knobs %s, want %q with %s", got.Name, got.Knobs, want.Kind, want.Config)
			}
			if !reflect.DeepEqual(got.Metrics, want.BestMetrics) {
				t.Errorf("metrics %v, want %v", got.Metrics, want.BestMetrics)
			}
			if !reflect.DeepEqual(got.Progression, want.TunerResult.Epochs) || !reflect.DeepEqual(got.StressReport.Progression, want.Progression) {
				t.Errorf("progression differs from the hand-built run's")
			}
			if got.Evaluations != want.Evaluations || got.StressReport.Epochs != want.Epochs {
				t.Errorf("%d evaluations over %d epochs, want %d over %d", got.Evaluations, got.StressReport.Epochs, want.Evaluations, want.Epochs)
			}
		})
	}
}
