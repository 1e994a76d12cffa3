package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"micrograd/internal/cloning"
	"micrograd/internal/config"
	"micrograd/internal/metrics"
	"micrograd/internal/platform"
	"micrograd/internal/stress"
	"micrograd/internal/tuner"
	"micrograd/internal/workloads"
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

func TestRunValidatesConfig(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, config.Config{}); err == nil {
		t.Error("empty config should be rejected")
	}
	bad := cloningConfig()
	bad.Core = "tiny"
	if _, err := Run(ctx, bad); err == nil {
		t.Error("unknown core should be rejected")
	}
}

func TestRunCloningUseCase(t *testing.T) {
	out, err := Run(context.Background(), cloningConfig())
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "hmmer" {
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
	out, err := Run(context.Background(), cfg)
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
	out, err := Run(context.Background(), cfg)
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
	out, err := Run(context.Background(), stressConfig())
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
	out, err := Run(context.Background(), stressConfig())
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
			got, err := Run(context.Background(), cfg)
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

// TestCloneRunMatchesHandBuiltOptions pins the cloning use case to the
// cloning.Options the framework used to assemble field by field from the
// configuration: its reports and output must equal cloning.CloneBenchmark,
// Clone and CloneSimpoints under those options, for a benchmark, explicit
// target metrics, per-phase simpoint cloning, and a parallel fan-out with
// max_epochs 0 still meaning cloning.DefaultMaxEpochs.
func TestCloneRunMatchesHandBuiltOptions(t *testing.T) {
	base := config.Default()
	base.UseCase, base.Benchmark, base.Core = config.UseCaseCloning, "mcf", "small"
	base.DynamicInstructions, base.LoopSize, base.MaxEpochs = 1500, 100, 4
	target := base
	target.Benchmark, target.Tuner, target.Seed, target.TargetAccuracy = "", "annealing", 7, 0.9
	target.TargetMetrics = map[string]float64{
		metrics.FracInteger: 0.5, metrics.FracLoad: 0.2, metrics.FracStore: 0.1,
		metrics.FracBranch: 0.1, metrics.L1DHitRate: 0.95, metrics.IPC: 1.5,
	}
	target.Metrics = []string{metrics.FracInteger, metrics.FracLoad, metrics.FracStore, metrics.FracBranch, metrics.L1DHitRate, metrics.IPC}
	simpoints := base
	simpoints.Benchmark, simpoints.CloneSimpoints, simpoints.MaxEpochs = "gcc", true, 2
	parallel := base
	parallel.Core, parallel.MaxEpochs, parallel.Parallel = "large", 0, 2
	for _, c := range []struct {
		name string
		cfg  config.Config
	}{{"benchmark", base}, {"target_metrics", target}, {"clone_simpoints", simpoints}, {"parallel", parallel}} {
		cfg := c.cfg
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			got, err := Run(ctx, cfg)
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
			opts := cloning.Options{
				Tuner:          tun,
				Platform:       plat,
				EvalOptions:    platform.EvalOptions{DynamicInstructions: cfg.DynamicInstructions, Seed: cfg.Seed},
				LoopSize:       cfg.LoopSize,
				Seed:           cfg.Seed,
				MaxEpochs:      cfg.MaxEpochs,
				TargetAccuracy: cfg.TargetAccuracy,
				Metrics:        cfg.Metrics,
				Parallel:       cfg.Parallel,
				NewPlatform:    func() (platform.Platform, error) { return platform.NewSimPlatform(spec) },
			}
			want := map[string]cloning.Report{}
			name, dominant := "target", "target"
			switch {
			case len(cfg.TargetMetrics) > 0:
				want["target"], err = cloning.Clone(ctx, "target", metrics.Vector(cfg.TargetMetrics), opts)
			default:
				bm, berr := workloads.ByName(cfg.Benchmark)
				if berr != nil {
					t.Fatal(berr)
				}
				name, dominant = bm.Name, bm.DominantPhase().Name
				if cfg.CloneSimpoints {
					want, err = cloning.CloneSimpoints(ctx, bm, opts)
				} else {
					want[dominant], err = cloning.CloneBenchmark(ctx, bm, opts)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.CloneReports, want) {
				t.Errorf("clone reports differ from the hand-built run's")
			}
			rep := want[dominant]
			evaluations := 0
			for _, r := range want {
				evaluations += r.Evaluations
			}
			if got.Name != name || got.Knobs.String() != rep.Config.String() {
				t.Errorf("run %q with knobs %s, want %q with %s", got.Name, got.Knobs, name, rep.Config)
			}
			if !reflect.DeepEqual(got.Metrics, rep.Clone) {
				t.Errorf("metrics %v, want %v", got.Metrics, rep.Clone)
			}
			if !reflect.DeepEqual(got.Progression, rep.TunerResult.Epochs) {
				t.Errorf("progression differs from the hand-built run's")
			}
			if got.Evaluations != evaluations {
				t.Errorf("%d evaluations, want %d", got.Evaluations, evaluations)
			}
		})
	}
}
