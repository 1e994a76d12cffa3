package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"micrograd/internal/config"
	"micrograd/internal/metrics"
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
	if good.Config().Benchmark != "hmmer" || good.Platform() == nil {
		t.Error("framework accessors broken")
	}
}

// TestNewBuildsEveryRegisteredTuner pins that the front-end resolves tuner
// names through the tuner registry: every name it lists validates and
// builds, and the empty name keeps the gradient-descent default.
func TestNewBuildsEveryRegisteredTuner(t *testing.T) {
	for _, name := range append(tuner.Names(), "") {
		cfg := stressConfig()
		cfg.Tuner = name
		if err := cfg.Validate(); err != nil {
			t.Errorf("tuner %q: Validate: %v", name, err)
			continue
		}
		fw, err := New(cfg)
		if err != nil {
			t.Errorf("tuner %q: New: %v", name, err)
			continue
		}
		want := "gd"
		if name != "" {
			want = name
		}
		ref, err := tuner.ByName(want)
		if err != nil {
			t.Fatal(err)
		}
		if got := fw.tun.Name(); got != ref.Name() {
			t.Errorf("tuner %q built %q, want %q", name, got, ref.Name())
		}
	}
	bad := stressConfig()
	bad.Tuner = "hillclimb"
	if _, err := New(bad); err == nil {
		t.Error("unknown tuner should be rejected")
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
