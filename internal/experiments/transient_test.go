package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"micrograd/internal/metrics"
	"micrograd/internal/platform"
	"micrograd/internal/stress"
)

// transientBudget keeps transient experiment tests fast.
func transientBudget() Budget {
	return Budget{
		DynamicInstructions: 5000,
		StressEpochs:        4,
		LoopSize:            200,
		Seed:                1,
	}
}

func TestRunStressKindCharacterizesKernel(t *testing.T) {
	run, err := RunStressKind(context.Background(), stress.VoltageNoiseVirus, "small", transientBudget())
	if err != nil {
		t.Fatal(err)
	}
	if run.Kind != stress.VoltageNoiseVirus || run.Core != platform.SmallCore {
		t.Errorf("run identifies as %s on %s", run.Kind, run.Core)
	}
	for _, name := range []string{metrics.DynamicPowerW, metrics.WorstDroopMV, metrics.TempC} {
		if _, ok := run.Full[name]; !ok {
			t.Errorf("characterization missing %s", name)
		}
	}
	if run.Trace.Empty() {
		t.Error("characterization should include a power trace")
	}
	out := run.Render()
	for _, want := range []string{"voltage-noise-virus", "worst droop", "dI/dt"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered run missing %q:\n%s", want, out)
		}
	}
}

// TestMemoCapBoundsEachRunsCache checks that the budget's MemoCap reaches
// the run: a one-entry LRU forgets the configurations gradient descent
// revisits, so the run simulates more, while the cache still never changes
// what the search finds.
func TestMemoCapBoundsEachRunsCache(t *testing.T) {
	unbounded, err := RunStressKind(context.Background(), stress.PerfVirus, "small", transientBudget())
	if err != nil {
		t.Fatal(err)
	}
	b := transientBudget()
	b.MemoCap = 1
	capped, err := RunStressKind(context.Background(), stress.PerfVirus, "small", b)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Report.Evaluations <= unbounded.Report.Evaluations {
		t.Errorf("a 1-entry cache simulated %d evaluations, the unbounded cache %d: want more",
			capped.Report.Evaluations, unbounded.Report.Evaluations)
	}
	if capped.Report.Config.Key() != unbounded.Report.Config.Key() || capped.Report.BestValue != unbounded.Report.BestValue {
		t.Errorf("the cache bound changed the result: %v (%v) vs %v (%v)",
			capped.Report.Config, capped.Report.BestValue, unbounded.Report.Config, unbounded.Report.BestValue)
	}
}

func TestRunStressKindRejectsUnknownCore(t *testing.T) {
	if _, err := RunStressKind(context.Background(), stress.PerfVirus, "medium", transientBudget()); err == nil {
		t.Error("unknown core should be rejected")
	}
}

func TestRunStressKindParallelMatchesSerial(t *testing.T) {
	serial, err := RunStressKind(context.Background(), stress.ThermalVirus, "small", transientBudget())
	if err != nil {
		t.Fatal(err)
	}
	pb := transientBudget()
	pb.Parallel = 4
	par, err := RunStressKind(context.Background(), stress.ThermalVirus, "small", pb)
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

// TestRunKindParallelMatchesSerial checks the kind dispatcher's chip paths
// are bit-identical at any worker count: rendered table, trace and
// progression.
func TestRunKindParallelMatchesSerial(t *testing.T) {
	for _, req := range []Request{
		{Kind: string(stress.CoRunNoiseVirus), Core: "small", Cores: 2},
		{Kind: string(stress.HotspotMigrationVirus), Core: "small", Cores: 4, Rows: 2, Cols: 2},
	} {
		serial, err := RunKind(context.Background(), req, transientBudget())
		if err != nil {
			t.Fatal(err)
		}
		pb := transientBudget()
		pb.Parallel = 8
		par, err := RunKind(context.Background(), req, pb)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Output != par.Output {
			t.Errorf("%s: parallel output differs from serial:\n%s\nserial:\n%s", req.Kind, par.Output, serial.Output)
		}
		if !reflect.DeepEqual(serial.Trace, par.Trace) || !reflect.DeepEqual(serial.Report.Progression, par.Report.Progression) {
			t.Errorf("%s: parallel trace or progression differs from serial", req.Kind)
		}
	}
}

func TestRunKindRejectsUnknownKind(t *testing.T) {
	if _, err := RunKind(context.Background(), Request{Kind: "no-such-virus", Core: "small"}, transientBudget()); err == nil {
		t.Error("unknown kind should be rejected")
	}
}

func TestRunStressCompareCoversAllKinds(t *testing.T) {
	res, err := RunStressCompare(context.Background(), transientBudget())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != len(stress.Kinds()) {
		t.Fatalf("comparison has %d runs, want %d", len(res.Runs), len(stress.Kinds()))
	}
	seen := map[stress.Kind]bool{}
	for _, run := range res.Runs {
		seen[run.Kind] = true
	}
	for _, k := range stress.Kinds() {
		if !seen[k] {
			t.Errorf("comparison missing kind %s", k)
		}
	}
	out := res.Render()
	for _, k := range stress.Kinds() {
		if !strings.Contains(out, string(k)) {
			t.Errorf("rendered table missing %s:\n%s", k, out)
		}
	}
}
