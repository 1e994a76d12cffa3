package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"micrograd/internal/metrics"
	"micrograd/internal/tuner"
)

// tinyBudget keeps experiment tests fast while still exercising the full
// pipeline.
func tinyBudget() Budget {
	return Budget{
		DynamicInstructions:   3000,
		CloneEpochs:           6,
		StressEpochs:          6,
		LoopSize:              150,
		Benchmarks:            []string{"hmmer", "mcf"},
		BruteForceEvaluations: 64,
		Seed:                  1,
	}
}

func TestBudgets(t *testing.T) {
	full := FullBudget()
	quick := QuickBudget()
	if full.DynamicInstructions <= quick.DynamicInstructions {
		t.Error("full budget should simulate more instructions than quick")
	}
	if len(quick.Benchmarks) == 0 || len(full.Benchmarks) != 0 {
		t.Error("quick budget restricts benchmarks; full budget runs all")
	}
	n := Budget{}.normalized()
	if n.DynamicInstructions != full.DynamicInstructions || n.Seed != full.Seed {
		t.Error("normalization should fill from the full budget")
	}
	if _, err := (Budget{Benchmarks: []string{"nope"}}).benchmarks(); err == nil {
		t.Error("unknown benchmark in budget should be rejected")
	}
	bms, err := (Budget{}).benchmarks()
	if err != nil || len(bms) != 8 {
		t.Error("empty benchmark list should resolve to the full suite")
	}
}

func TestTableI(t *testing.T) {
	out := TableI().Render()
	for _, want := range []string{"Population Size", "50", "3%", "1-point", "Tournament Size", "5"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
	// The elitism row renders the constant the GA runs with.
	if want := fmt.Sprintf("Elitism             %v", tuner.GAElitism); !strings.Contains(out, want) {
		t.Errorf("Table I missing %q:\n%s", want, out)
	}
}

func TestTableII(t *testing.T) {
	out := TableII().Render()
	for _, want := range []string{"Front-End Width", "40/16/32", "160/64/128", "3/2/2", "6/4/4", "prefetch", "2 GHz"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II missing %q:\n%s", want, out)
		}
	}
}

func TestFig2QuickRun(t *testing.T) {
	res, err := RunFig2(context.Background(), tinyBudget())
	if err != nil {
		t.Fatal(err)
	}
	if res.Figure != "fig2" || res.Core != "large" || res.Tuner != "gradient-descent" {
		t.Errorf("experiment identity wrong: %+v", res)
	}
	if len(res.Reports) != 2 {
		t.Fatalf("expected 2 benchmark reports, got %d", len(res.Reports))
	}
	if res.MeanError < 0 || res.MeanError > 0.6 {
		t.Errorf("mean error %.3f implausible even for the tiny budget", res.MeanError)
	}
	out := res.Render()
	if !strings.Contains(out, "hmmer") || !strings.Contains(out, "mcf") {
		t.Errorf("render missing benchmarks:\n%s", out)
	}
	epochs := res.EpochsPerBenchmark()
	if epochs["hmmer"] == 0 {
		t.Error("epochs not recorded")
	}
}

func TestFig4UsesGATunerAndEpochOverride(t *testing.T) {
	b := tinyBudget()
	b.Benchmarks = []string{"hmmer"}
	override := map[string]int{"hmmer": 2}
	res, err := RunFig4(context.Background(), b, override)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuner != "genetic-algorithm" {
		t.Error("Fig 4 must use the GA tuner")
	}
	rep := res.Reports["hmmer"]
	if rep.Epochs > 2 {
		t.Errorf("epoch override ignored: %d epochs", rep.Epochs)
	}
}

func TestFig5QuickRun(t *testing.T) {
	res, err := RunFig5(context.Background(), tinyBudget())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metric != metrics.IPC || res.Maximize {
		t.Error("Fig 5 should minimize IPC")
	}
	if res.BruteForceValue <= 0 {
		t.Error("brute-force reference missing")
	}
	if res.GDAccuracy <= 0 || res.GDAccuracy > 2 || res.GAAccuracy <= 0 || res.GAAccuracy > 2 {
		t.Errorf("accuracies out of range: GD %.2f GA %.2f", res.GDAccuracy, res.GAAccuracy)
	}
	// The GA is granted 1.5x the GD epochs, as in the paper.
	if res.GA.Epochs <= res.GD.Epochs {
		t.Errorf("GA epochs %d should exceed GD epochs %d", res.GA.Epochs, res.GD.Epochs)
	}
	series := res.Series()
	if len(series) != 3 {
		t.Fatalf("expected GD/GA/BruteForce series, got %d", len(series))
	}
	out := res.Render()
	if !strings.Contains(out, "GD") || !strings.Contains(out, "BruteForce") {
		t.Errorf("render missing series:\n%s", out)
	}
}

// TestFig5IgnoresStressBudgetKnobs pins the figures' opt-out: Figs. 5-6
// compare fixed GD and GA runs with the uncapped brute-force reference, so
// the budget's tuner, evaluation budget and power cap must not change them.
func TestFig5IgnoresStressBudgetKnobs(t *testing.T) {
	ctx := context.Background()
	plain, err := RunFig5(ctx, goldenBudget())
	if err != nil {
		t.Fatal(err)
	}
	b := goldenBudget()
	b.Tuner, b.MaxEvaluations, b.PowerCapW = "cmaes", 10, 0.5
	knobbed, err := RunFig5(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := knobbed.Render(), plain.Render(); got != want {
		t.Errorf("fig5 with -tuner/-budget/-power-cap set:\n%s\nwithout:\n%s", got, want)
	}
	if !reflect.DeepEqual(knobbed.Series(), plain.Series()) {
		t.Errorf("fig5 series differ with the stress budget knobs set")
	}
}

func TestFig6QuickRunAndTableIII(t *testing.T) {
	b := tinyBudget()
	res, err := RunFig6(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metric != metrics.DynamicPowerW || !res.Maximize {
		t.Error("Fig 6 should maximize dynamic power")
	}
	if res.GD.BestValue <= 0 || res.BruteForceValue <= 0 {
		t.Error("power values missing")
	}
	t3 := TableIIIFrom(res.GD)
	out := t3.Render()
	if !strings.Contains(out, "Integer") || !strings.Contains(out, "%") {
		t.Errorf("Table III render wrong:\n%s", out)
	}
	if t3.RegDist < 1 {
		t.Error("Table III missing register dependency distance")
	}
}

func TestSummary(t *testing.T) {
	b := tinyBudget()
	b.Benchmarks = []string{"hmmer"}
	fig2, err := RunFig2(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	fig4, err := RunFig4(context.Background(), b, fig2.EpochsPerBenchmark())
	if err != nil {
		t.Fatal(err)
	}
	fig5, err := RunFig5(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	fig6, err := RunFig6(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	s := Summary(fig2, fig4, fig5, fig6)
	if s.GAEvalsPerEpoch <= s.GDEvalsPerEpoch {
		t.Errorf("GA per-epoch cost (%.0f) should exceed GD (%.0f)", s.GAEvalsPerEpoch, s.GDEvalsPerEpoch)
	}
	out := s.Render()
	for _, want := range []string{"GD cloning mean error", "evaluations per epoch", "Power virus"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
