package experiments

import (
	"context"
	"strings"
	"testing"

	"micrograd/internal/metrics"
	"micrograd/internal/platform"
	"micrograd/internal/stress"
)

func TestRunDVFSBeatsHomogeneousBaselineAndRenders(t *testing.T) {
	res, err := RunDVFS(context.Background(), "small", 2, []float64{2.0, 1.2}, transientBudget())
	if err != nil {
		t.Fatal(err)
	}
	if res.Core != platform.SmallCore || res.Cores != 2 {
		t.Errorf("result identifies as %d x %s", res.Cores, res.Core)
	}
	if res.Report.BestValue <= res.Baseline.BestValue {
		t.Errorf("DVFS chip droop %.2f mV should exceed the homogeneous baseline %.2f mV",
			res.Report.BestValue, res.Baseline.BestValue)
	}
	if len(res.Report.FreqsGHz) != 2 {
		t.Errorf("report carries %d tuned clocks, want 2", len(res.Report.FreqsGHz))
	}
	for _, name := range []string{metrics.ChipPowerW, metrics.ChipWorstDroopMV, metrics.ChipMaxDIDTWPerNS, metrics.ChipTempC} {
		if _, ok := res.Full[name]; !ok {
			t.Errorf("characterization missing %s", name)
		}
	}
	if res.Full[metrics.ChipMaxDIDTWPerNS] <= 0 {
		t.Errorf("heterogeneous chip dI/dt %v should be positive (it used to be silently lost)",
			res.Full[metrics.ChipMaxDIDTWPerNS])
	}
	if res.Trace.Empty() {
		t.Error("characterization should include the chip trace")
	}
	out := res.Render()
	for _, want := range []string{"chip worst droop", "homogeneous co-run baseline", "tuned per-core clocks", "warm-start clocks", "chip max dI/dt"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered result missing %q:\n%s", want, out)
		}
	}
	series := res.Series()
	if len(series) != 2 || len(series[0].X) == 0 || len(series[1].X) == 0 {
		t.Error("progression series should cover both runs")
	}
}

func TestRunDVFSKindSkipsBaseline(t *testing.T) {
	var rows []ProgressRow
	b := transientBudget()
	b.OnProgress = func(r ProgressRow) { rows = append(rows, r) }
	res, err := RunKind(context.Background(), KindRequest{Kind: stress.DVFSNoiseVirus, Core: "small", Cores: 2}, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Kind != stress.DVFSNoiseVirus || res.Report.BestValue <= 0 || res.Trace.Empty() {
		t.Error("kind run should still tune and characterize the DVFS co-run")
	}
	if strings.Contains(res.Output, "homogeneous co-run baseline") {
		t.Errorf("render without a baseline should omit the comparison rows:\n%s", res.Output)
	}
	if strings.Contains(res.Output, "warm-start clocks") {
		t.Errorf("render without -freqs should omit the warm-start row:\n%s", res.Output)
	}
	for _, r := range rows {
		if r.Series != "DVFS" {
			t.Errorf("kind run streamed a %q row; only the DVFS series should run", r.Series)
		}
	}
}

func TestRunDVFSValidation(t *testing.T) {
	ctx := context.Background()
	b := transientBudget()
	if _, err := RunDVFS(ctx, "small", 1, nil, b); err == nil {
		t.Error("single-core DVFS co-run should be rejected")
	}
	if _, err := RunDVFS(ctx, "medium", 2, nil, b); err == nil {
		t.Error("unknown core should be rejected")
	}
	if _, err := RunDVFS(ctx, "small", 2, []float64{2.0}, b); err == nil {
		t.Error("start-clock/core count mismatch should be rejected")
	}
	if _, err := RunDVFS(ctx, "small", 2, []float64{2.0, -1}, b); err == nil {
		t.Error("non-positive start clock should be rejected")
	}
}

func TestRunDVFSParallelMatchesSerial(t *testing.T) {
	serial, err := RunDVFS(context.Background(), "small", 2, []float64{2.0, 1.2}, transientBudget())
	if err != nil {
		t.Fatal(err)
	}
	pb := transientBudget()
	pb.Parallel = 8
	par, err := RunDVFS(context.Background(), "small", 2, []float64{2.0, 1.2}, pb)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Report.BestValue != par.Report.BestValue {
		t.Errorf("parallel best %v differs from serial %v", par.Report.BestValue, serial.Report.BestValue)
	}
	if serial.Report.Config.Key() != par.Report.Config.Key() {
		t.Error("parallel best configuration differs from serial")
	}
}
