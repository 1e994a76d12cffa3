package platform

import (
	"testing"

	"micrograd/internal/metrics"
	"micrograd/internal/program"
)

func TestTransientMetricsCollectedWithPower(t *testing.T) {
	plat, err := NewSimPlatform(Small())
	if err != nil {
		t.Fatal(err)
	}
	p := testProgram(t)
	v, err := evalMetrics(plat, p, EvalOptions{DynamicInstructions: 8000, Seed: 1, CollectPower: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{metrics.DynamicPowerW, metrics.WorstDroopMV, metrics.MaxDIDTWPerCycle, metrics.TempC} {
		if _, ok := v[name]; !ok {
			t.Errorf("power evaluation missing %s", name)
		}
	}
	if v[metrics.WorstDroopMV] <= 0 {
		t.Errorf("droop %v should be positive", v[metrics.WorstDroopMV])
	}
	if v[metrics.TempC] <= 45 {
		t.Errorf("hotspot temperature %v should exceed ambient", v[metrics.TempC])
	}
}

func TestTransientMetricsAbsentWithoutPower(t *testing.T) {
	plat, err := NewSimPlatform(Small())
	if err != nil {
		t.Fatal(err)
	}
	v, err := evalMetrics(plat, testProgram(t), EvalOptions{DynamicInstructions: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{metrics.DynamicPowerW, metrics.WorstDroopMV, metrics.MaxDIDTWPerCycle, metrics.TempC} {
		if _, ok := v[name]; ok {
			t.Errorf("metric %s should only appear with CollectPower", name)
		}
	}
}

func TestPowerTraceAccessor(t *testing.T) {
	plat, err := NewSimPlatform(Small())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := plat.EvaluateRequest(EvalRequest{
		Programs: []*program.Program{testProgram(t)},
		Options:  EvalOptions{DynamicInstructions: 8000, Seed: 1},
		Detail:   DetailTrace,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := resp.Trace
	if tr.Empty() {
		t.Fatal("built-in cores should record a power trace")
	}
	if tr.WindowCycles != DefaultWindowCycles {
		t.Errorf("trace window %d, want %d", tr.WindowCycles, DefaultWindowCycles)
	}
	if tr.AvgPowerW() <= 0 {
		t.Error("trace average power should be positive")
	}
}

func TestCoreSpecValidatesTransientModels(t *testing.T) {
	spec := Small()
	spec.Supply.CapacitanceF = 0
	if err := spec.Validate(); err == nil {
		t.Error("broken supply model should fail spec validation")
	}
	spec = Small()
	spec.Thermal.RthCPerW = -1
	if err := spec.Validate(); err == nil {
		t.Error("broken thermal model should fail spec validation")
	}
}
