package experiments

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"micrograd/internal/metrics"
	"micrograd/internal/platform"
	"micrograd/internal/report"
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

// TestRunKindMatchesRunners checks that the dispatcher runs the two kinds
// that are not stress kinds exactly as their experiment runners do:
// cloning is Fig. 2 on the large core and Fig. 3 on the small one.
func TestRunKindMatchesRunners(t *testing.T) {
	ctx := context.Background()
	b := transientBudget()
	b.DynamicInstructions, b.CloneEpochs, b.Benchmarks, b.MaxEvaluations = 2000, 2, []string{"mcf"}, 20
	fig2, err := RunFig2(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	fig3, err := RunFig3(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := RunTunerCmp(ctx, "small", 2, 1, 2, []string{"random"}, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		req    Request
		output string
		series []report.Series
	}{
		{Request{Kind: "cloning"}, fig2.Render(), fig2.Series()},
		{Request{Kind: "cloning", Core: "large"}, fig2.Render(), fig2.Series()},
		{Request{Kind: "cloning", Core: "small"}, fig3.Render(), fig3.Series()},
		{Request{Kind: "tunercmp", Core: "small", Cores: 2, Rows: 1, Cols: 2, Tuners: []string{"random"}}, cmp.Render(), cmp.Progressions},
	} {
		res, err := RunKind(ctx, c.req, b)
		if err != nil {
			t.Fatalf("%+v: %v", c.req, err)
		}
		if res.Kind != c.req.Kind || res.Output != c.output {
			t.Errorf("%+v: kind %q rendered\n%s\nwant the runner's\n%s", c.req, res.Kind, res.Output, c.output)
		}
		if got := res.Series(); !reflect.DeepEqual(got, c.series) || len(got) == 0 {
			t.Errorf("%+v: series %v, want the runner's %v", c.req, got, c.series)
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

// TestStressReportsWhatItMeasured pins that a stress run reports a value it
// measured: for every single-core and chip kind, uncapped and under a power
// cap, Report.BestValue is the winner's BestMetrics[Metric], bit for bit.
// Two caps are run. One no candidate exceeds, which still makes a run
// measure power, as an uncapped droop or thermal run does not. The other is
// 97% of that run's winner's power, so it binds: the run must find a winner
// within it, which is another candidate, or fail naming the cap (at these
// budgets perf-virus's capped search finds nothing below its winner). The
// spatial kinds run on a 1×2 and a 2×2 grid.
func TestStressReportsWhatItMeasured(t *testing.T) {
	b := transientBudget()
	b.DynamicInstructions, b.StressEpochs = 3000, 2
	run := func(t *testing.T, req Request, capW float64) (stress.Report, error) {
		t.Helper()
		bb := b
		bb.PowerCapW = capW
		res, err := RunKind(context.Background(), req, bb)
		if err != nil {
			return stress.Report{}, err
		}
		rep := res.Report
		if got, ok := rep.BestMetrics[rep.Metric]; !ok || math.Float64bits(got) != math.Float64bits(rep.BestValue) {
			t.Errorf("%s (cap %g W): reported best %s = %v, its metric vector holds %v (present %v)",
				req.Kind, capW, rep.Metric, rep.BestValue, got, ok)
		}
		return rep, nil
	}
	var reqs []Request
	for _, k := range stress.Kinds() {
		reqs = append(reqs, Request{Kind: string(k), Core: "small"})
	}
	reqs = append(reqs,
		Request{Kind: string(stress.CoRunNoiseVirus), Core: "small", Cores: 2},
		Request{Kind: string(stress.DVFSNoiseVirus), Core: "small", Cores: 2})
	for _, k := range []stress.Kind{stress.SpatialNoiseVirus, stress.HotspotMigrationVirus} {
		reqs = append(reqs,
			Request{Kind: string(k), Core: "small", Cores: 2},
			Request{Kind: string(k), Core: "small", Cores: 4})
	}
	for _, req := range reqs {
		name := req.Kind
		if req.Cores > 0 {
			name = fmt.Sprintf("%s-%dc", req.Kind, req.Cores)
		}
		t.Run(name, func(t *testing.T) {
			powerMetric := metrics.DynamicPowerW
			if stress.Kind(req.Kind).MultiCore() {
				powerMetric = metrics.ChipPowerW
			}
			if _, err := run(t, req, 0); err != nil {
				t.Fatalf("uncapped: %v", err)
			}
			loose, err := run(t, req, math.MaxFloat64)
			if err != nil {
				t.Fatalf("under a cap no candidate exceeds: %v", err)
			}
			p, ok := loose.BestMetrics[powerMetric]
			if !ok {
				t.Fatalf("a run under a cap reports no %s", powerMetric)
			}
			capW := 0.97 * p
			capped, err := run(t, req, capW)
			switch {
			case err != nil:
				if !strings.Contains(err.Error(), "found no configuration within") {
					t.Errorf("under the %v W cap: %v", capW, err)
				}
			case !(capped.BestMetrics[powerMetric] <= capW):
				t.Errorf("capped winner measures %s = %v, above the %v W cap", powerMetric, capped.BestMetrics[powerMetric], capW)
			}
		})
	}
}
