package cloning

import (
	"context"
	"strings"
	"testing"

	"micrograd/internal/metrics"
	"micrograd/internal/platform"
	"micrograd/internal/tuner"
	"micrograd/internal/workloads"
)

func testOptions(t *testing.T, core platform.CoreSpec) Options {
	t.Helper()
	plat, err := platform.NewSimPlatform(core)
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Platform:    plat,
		EvalOptions: platform.EvalOptions{DynamicInstructions: 6000, Seed: 1},
		LoopSize:    200,
		Seed:        7,
		MaxEpochs:   25,
	}
}

func TestTargetLossFor(t *testing.T) {
	l := TargetLossFor(0.99, 9)
	if l <= 0 || l > 0.001 {
		t.Errorf("TargetLossFor(0.99, 9) = %v, want small positive", l)
	}
	if TargetLossFor(0.95, 9) <= l {
		t.Error("looser accuracy target should give larger loss threshold")
	}
	if TargetLossFor(0, 9) != tuner.NoTargetLoss || TargetLossFor(1.5, 9) != tuner.NoTargetLoss {
		t.Error("out-of-range accuracy should disable the threshold")
	}
}

func TestCloneRejectsBadInputs(t *testing.T) {
	ctx := context.Background()
	if _, err := Clone(ctx, "x", metrics.Vector{metrics.IPC: 1}, Options{}); err == nil {
		t.Error("missing platform should be rejected")
	}
	opts := testOptions(t, platform.Small())
	if _, err := Clone(ctx, "x", metrics.Vector{}, opts); err == nil {
		t.Error("empty target should be rejected")
	}
}

// TestCloneRejectsMetricsOutsideTheTarget pins that a run whose loss would
// read nothing fails before tuning, naming the metric: the loss skips a
// name the target lacks, so such a run used to stop after one epoch and
// report a perfect clone.
func TestCloneRejectsMetricsOutsideTheTarget(t *testing.T) {
	full := metrics.Vector{
		metrics.FracInteger: 0.45, metrics.FracLoad: 0.2, metrics.FracStore: 0.1,
		metrics.FracBranch: 0.15, metrics.BranchMispredictRate: 0.05,
		metrics.L1IHitRate: 1.0, metrics.L1DHitRate: 0.92, metrics.L2HitRate: 0.8,
		metrics.IPC: 1.2,
	}
	for _, c := range []struct {
		name    string
		target  metrics.Vector
		metrics []string
		want    string
	}{
		{"default metrics, typo target", metrics.Vector{"ipcc": 1.2}, nil, "none of the cloned metrics"},
		{"typo metrics", full, []string{"ipcc", "l1d_hitrate"}, `"ipcc"`},
		{"one metric outside the target", metrics.Vector{metrics.IPC: 1.2}, []string{metrics.IPC, metrics.L2HitRate}, `"l2_hit_rate"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := testOptions(t, platform.Small())
			opts.Metrics = c.metrics
			epochs := 0
			opts.OnEpoch = func(tuner.EpochRecord) { epochs++ }
			_, err := Clone(context.Background(), "x", c.target, opts)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %v, want one containing %s", err, c.want)
			}
			if epochs != 0 {
				t.Errorf("ran %d tuning epochs before failing", epochs)
			}
		})
	}
}

func TestCloneBenchmarkGDAccuracy(t *testing.T) {
	// Clone a compute-bound benchmark with GD on the large core and require
	// good (not paper-perfect: reduced budgets) accuracy.
	opts := testOptions(t, platform.Large())
	bm, err := workloads.ByName("hmmer")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CloneBenchmark(context.Background(), bm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Name != "hmmer" {
		t.Errorf("report name %q", rep.Name)
	}
	if rep.MeanAccuracy < 0.80 {
		t.Errorf("mean accuracy %.3f below 0.80 for hmmer clone", rep.MeanAccuracy)
	}
	if len(rep.Accuracy) != len(metrics.CloningMetricNames()) {
		t.Errorf("per-metric accuracy has %d entries", len(rep.Accuracy))
	}
	if rep.Epochs == 0 || rep.Evaluations == 0 {
		t.Error("missing tuning accounting")
	}
	if rep.Program == nil || rep.Program.Validate() != nil {
		t.Error("clone program missing or invalid")
	}
	if rep.Program.Meta["cloned_application"] != "hmmer" {
		t.Error("clone program missing metadata")
	}
	if rep.Program.StaticCount() != 200 {
		t.Errorf("clone static size %d, want requested 200", rep.Program.StaticCount())
	}
	if rep.Config.IsZero() {
		t.Error("missing knob configuration")
	}
	// The tuner's epoch progression must be recorded for reporting.
	if len(rep.TunerResult.Epochs) != rep.Epochs {
		t.Error("epoch progression inconsistent")
	}
}

func TestCloneDirectTargetVector(t *testing.T) {
	// Clone against an explicitly provided metric vector (the paper's
	// "numerical values provided directly" input mode).
	opts := testOptions(t, platform.Small())
	opts.MaxEpochs = 15
	target := metrics.Vector{
		metrics.FracInteger: 0.45, metrics.FracLoad: 0.2, metrics.FracStore: 0.1,
		metrics.FracBranch: 0.15, metrics.BranchMispredictRate: 0.05,
		metrics.L1IHitRate: 1.0, metrics.L1DHitRate: 0.92, metrics.L2HitRate: 0.8,
		metrics.IPC: 1.2,
	}
	rep, err := Clone(context.Background(), "direct", target, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The hand-written target is not guaranteed to be reachable, but the
	// tuner should land in its broad vicinity.
	if rep.MeanAccuracy < 0.5 {
		t.Errorf("mean accuracy %.3f suspiciously low even for a synthetic target", rep.MeanAccuracy)
	}
	for m, ratio := range rep.Accuracy {
		if ratio <= 0 {
			t.Errorf("metric %s has non-positive accuracy ratio", m)
		}
	}
}

func TestCloneWithGATunerRuns(t *testing.T) {
	opts := testOptions(t, platform.Large())
	opts.MaxEpochs = 2
	opts.Tuner = tuner.NewGeneticAlgorithm()
	bm, _ := workloads.ByName("bzip2")
	rep, err := CloneBenchmark(context.Background(), bm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TunerResult.Tuner != "genetic-algorithm" {
		t.Error("GA tuner not used")
	}
	// The tuner requests population*epochs evaluations; duplicates within
	// the population are served from the memoization cache, so the platform
	// count may be lower but never higher.
	want := 2 * tuner.GAPopulationSize
	if rep.TunerResult.TotalEvaluations != want {
		t.Errorf("GA tuner evaluations = %d, want %d", rep.TunerResult.TotalEvaluations, want)
	}
	if rep.Evaluations > want || rep.Evaluations == 0 {
		t.Errorf("platform evaluations = %d, want in (0,%d]", rep.Evaluations, want)
	}
}

func TestCloneSimpoints(t *testing.T) {
	opts := testOptions(t, platform.Small())
	opts.MaxEpochs = 4
	opts.EvalOptions.DynamicInstructions = 3000
	gcc, _ := workloads.ByName("gcc")
	reports, err := CloneSimpoints(context.Background(), gcc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(gcc.Phases) {
		t.Fatalf("got %d simpoint clones, want %d", len(reports), len(gcc.Phases))
	}
	for phase, rep := range reports {
		if rep.Program == nil {
			t.Errorf("phase %s: missing clone program", phase)
		}
	}
}

func TestCloneBenchmarkValidatesBenchmark(t *testing.T) {
	opts := testOptions(t, platform.Small())
	if _, err := CloneBenchmark(context.Background(), workloads.Benchmark{}, opts); err == nil {
		t.Error("invalid benchmark should be rejected")
	}
	if _, err := CloneBenchmark(context.Background(), workloads.Benchmark{Name: "x"}, Options{}); err == nil {
		t.Error("missing platform should be rejected")
	}
	if _, err := CloneSimpoints(context.Background(), workloads.Benchmark{}, opts); err == nil {
		t.Error("invalid benchmark should be rejected by CloneSimpoints")
	}
}
