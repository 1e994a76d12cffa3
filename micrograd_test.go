package micrograd

import (
	"context"
	"testing"
)

func TestFacadeBasics(t *testing.T) {
	if len(Benchmarks()) != 8 {
		t.Error("expected the 8-benchmark suite")
	}
	if _, err := BenchmarkByName("mcf"); err != nil {
		t.Error(err)
	}
	if len(Cores()) != 2 {
		t.Error("expected small and large cores")
	}
	if _, err := CoreByName("large"); err != nil {
		t.Error(err)
	}
	if DefaultKnobSpace().Len() != 16 || StressKnobSpace().Len() != 11 {
		t.Error("knob spaces have unexpected sizes")
	}
	if len(CloningMetricNames()) != 9 {
		t.Error("expected 9 cloning metrics")
	}
	if GradientDescentTuner().Name() != "gradient-descent" || GeneticAlgorithmTuner().Name() != "genetic-algorithm" {
		t.Error("tuner constructors broken")
	}
}

func TestFacadeSynthesizeAndEvaluate(t *testing.T) {
	cfg := DefaultKnobSpace().MidConfig()
	prog, err := Synthesize("facade", cfg, 120, 1)
	if err != nil {
		t.Fatal(err)
	}
	if prog.StaticCount() != 120 {
		t.Errorf("static count %d", prog.StaticCount())
	}
	plat, err := NewPlatform("small")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := plat.EvaluateRequest(EvalRequest{Programs: []*Program{prog}, Options: EvalOptions{DynamicInstructions: 4000, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Metrics["ipc"] <= 0 {
		t.Error("evaluation produced no IPC")
	}
	if _, err := NewPlatform("giant"); err == nil {
		t.Error("unknown core should be rejected")
	}
}

func TestFacadeRunConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseCase = "stress"
	cfg.StressKind = string(PerfVirus)
	cfg.MaxEpochs = 4
	cfg.DynamicInstructions = 3000
	cfg.LoopSize = 120
	out, err := RunConfig(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.StressReport == nil || out.Program == nil {
		t.Error("stress run incomplete")
	}
	if _, err := RunConfig(context.Background(), Config{}); err == nil {
		t.Error("invalid config should be rejected")
	}
}

func TestFacadeCloneBenchmark(t *testing.T) {
	plat, err := NewPlatform("large")
	if err != nil {
		t.Fatal(err)
	}
	bm, err := BenchmarkByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CloneBenchmark(context.Background(), bm, CloneOptions{
		Platform:    plat,
		EvalOptions: EvalOptions{DynamicInstructions: 3000, Seed: 1},
		LoopSize:    120,
		MaxEpochs:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Name != "bzip2" || rep.Program == nil {
		t.Error("clone report incomplete")
	}
}
