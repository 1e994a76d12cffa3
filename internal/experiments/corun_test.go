package experiments

import (
	"context"
	"strings"
	"testing"

	"micrograd/internal/metrics"
	"micrograd/internal/platform"
	"micrograd/internal/stress"
)

func TestRunCoRunBeatsBaselineAndRenders(t *testing.T) {
	res, err := RunCoRun(context.Background(), "small", 2, transientBudget())
	if err != nil {
		t.Fatal(err)
	}
	if res.Core != platform.SmallCore || res.Cores != 2 {
		t.Errorf("result identifies as %d x %s", res.Cores, res.Core)
	}
	if res.Report.BestValue <= res.Baseline.BestValue {
		t.Errorf("co-run chip droop %.2f mV should exceed the single-core baseline %.2f mV",
			res.Report.BestValue, res.Baseline.BestValue)
	}
	for _, name := range []string{metrics.ChipPowerW, metrics.ChipWorstDroopMV, metrics.ChipMaxDIDTWPerNS, metrics.ChipTempC} {
		if _, ok := res.Full[name]; !ok {
			t.Errorf("characterization missing %s", name)
		}
	}
	if res.Trace.Empty() {
		t.Error("characterization should include the chip trace")
	}
	out := res.Render()
	for _, want := range []string{"chip worst droop", "single-core baseline", "phase offsets", "chip max dI/dt"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered result missing %q:\n%s", want, out)
		}
	}
	series := res.Series()
	if len(series) != 2 || len(series[0].X) == 0 || len(series[1].X) == 0 {
		t.Error("progression series should cover both runs")
	}
}

func TestRunCoRunKindSkipsBaseline(t *testing.T) {
	var rows []ProgressRow
	b := transientBudget()
	b.OnProgress = func(r ProgressRow) { rows = append(rows, r) }
	res, err := RunKind(context.Background(), Request{Kind: string(stress.CoRunNoiseVirus), Core: "small", Cores: 2}, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Kind != stress.CoRunNoiseVirus || res.Report.BestValue <= 0 || res.Trace.Empty() {
		t.Error("kind run should still tune and characterize the co-run")
	}
	if strings.Contains(res.Output, "single-core baseline") || !strings.Contains(res.Output, "chip worst droop") {
		t.Errorf("render without a baseline should omit the comparison rows:\n%s", res.Output)
	}
	for _, r := range rows {
		if r.Series != "CoRun" {
			t.Errorf("kind run streamed a %q row; only the co-run series should run", r.Series)
		}
	}
}

func TestRunCoRunValidation(t *testing.T) {
	if _, err := RunCoRun(context.Background(), "small", 1, transientBudget()); err == nil {
		t.Error("single-core co-run should be rejected")
	}
	if _, err := RunCoRun(context.Background(), "medium", 2, transientBudget()); err == nil {
		t.Error("unknown core should be rejected")
	}
}

func TestRunCoRunParallelMatchesSerial(t *testing.T) {
	serial, err := RunCoRun(context.Background(), "small", 2, transientBudget())
	if err != nil {
		t.Fatal(err)
	}
	pb := transientBudget()
	pb.Parallel = 8
	par, err := RunCoRun(context.Background(), "small", 2, pb)
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
