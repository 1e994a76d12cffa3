package experiments

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"

	"micrograd/internal/cloning"
	"micrograd/internal/metrics"
	"micrograd/internal/platform"
	"micrograd/internal/report"
	"micrograd/internal/sched"
	"micrograd/internal/tuner"
	"micrograd/internal/workloads"
)

// CloningResult is the outcome of one cloning experiment (Figs. 2-4): one
// clone per benchmark on one core with one tuning mechanism.
type CloningResult struct {
	// Figure identifies the experiment ("fig2", "fig3", "fig4").
	Figure string
	// Core and Tuner describe the setup.
	Core  platform.CoreKind
	Tuner string
	// Reports maps benchmark name to its cloning report.
	Reports map[string]cloning.Report
	// MeanError is the mean |accuracy-1| across all benchmarks and metrics.
	MeanError float64
}

// EpochsPerBenchmark returns benchmark -> epochs used.
func (r CloningResult) EpochsPerBenchmark() map[string]int {
	out := make(map[string]int, len(r.Reports))
	for name, rep := range r.Reports {
		out[name] = rep.Epochs
	}
	return out
}

// AccuracyRatios returns benchmark -> metric -> clone/target ratio.
func (r CloningResult) AccuracyRatios() map[string]map[string]float64 {
	out := make(map[string]map[string]float64, len(r.Reports))
	for name, rep := range r.Reports {
		out[name] = rep.Accuracy
	}
	return out
}

// Series returns every benchmark's best-loss progression per epoch (the
// rows a cloning job streams), in benchmark-name order.
func (r CloningResult) Series() []report.Series {
	var out []report.Series
	for _, name := range slices.Sorted(maps.Keys(r.Reports)) {
		s := report.Series{Name: name}
		for _, rec := range r.Reports[name].TunerResult.Epochs {
			s.AddPoint(float64(rec.Epoch), rec.BestLoss)
		}
		out = append(out, s)
	}
	return out
}

// Render renders the radar-table view of the experiment.
func (r CloningResult) Render() string {
	title := fmt.Sprintf("%s: workload cloning on the %q core with %s (mean error %.1f%%)",
		strings.ToUpper(r.Figure), r.Core, r.Tuner, r.MeanError*100)
	t := report.RadarTable(title, metrics.CloningMetricNames(), r.AccuracyRatios(), r.EpochsPerBenchmark())
	return t.String()
}

// runCloningExperiment clones every benchmark of the budget on the given
// core with the given tuner factory. epochOverride, when non-nil, limits each
// benchmark's epochs individually (used by Fig. 4 to grant the GA the same
// epoch budget GD needed).
func runCloningExperiment(ctx context.Context, figure string, core platform.CoreSpec,
	tunerName string, newTuner func() tuner.Tuner, b Budget, epochOverride map[string]int) (CloningResult, error) {

	b = b.normalized()
	bms, err := b.benchmarks()
	if err != nil {
		return CloningResult{}, err
	}
	res := CloningResult{
		Figure:  figure,
		Core:    core.Kind,
		Tuner:   tunerName,
		Reports: make(map[string]cloning.Report, len(bms)),
	}

	// Each benchmark's cloning run is independent (its own platform, its own
	// seed), so the per-benchmark loop fans out across the engine's workers;
	// the reports are folded back in benchmark order so the accumulated
	// totals are bit-identical to the serial loop. The worker budget is
	// split across the two nesting levels — benchmarks outside, candidate
	// evaluations inside — so total concurrency stays near b.Parallel
	// instead of multiplying to Parallel².
	outer, inner := splitWorkers(b.Parallel, len(bms))
	runOne := func(ctx context.Context, i int, bm workloads.Benchmark) (cloning.Report, error) {
		newPlatform, release := b.CorePlatforms(core)
		defer release()
		opts, err := b.CloneOptions(newPlatform, inner, bm.Name)
		if err != nil {
			return cloning.Report{}, err
		}
		// Each benchmark generates from its own seed; the evaluation
		// window keeps the budget's.
		opts.Tuner, opts.Seed = newTuner(), b.Seed+int64(i)*101
		if e, ok := epochOverride[bm.Name]; ok && e > 0 {
			opts.MaxEpochs = e
		}
		rep, err := cloning.CloneBenchmark(ctx, bm, opts)
		if err != nil {
			return cloning.Report{}, fmt.Errorf("experiments: %s cloning %s: %w", figure, bm.Name, err)
		}
		return rep, nil
	}
	reports, err := sched.Map(ctx, outer, bms, runOne)
	if err != nil {
		return res, err
	}
	totalErr := 0.0
	for i, bm := range bms {
		rep := reports[i]
		res.Reports[bm.Name] = rep
		totalErr += report.MeanAbsError(rep.Accuracy)
	}
	if len(bms) > 0 {
		res.MeanError = totalErr / float64(len(bms))
	}
	return res, nil
}

// RunFig2 reproduces Fig. 2: workload cloning of the benchmark suite on the
// Large core with gradient-descent tuning.
func RunFig2(ctx context.Context, b Budget) (CloningResult, error) {
	return runCloningExperiment(ctx, "fig2", platform.Large(), "gradient-descent",
		func() tuner.Tuner { return tuner.NewGradientDescent() }, b, nil)
}

// RunFig3 reproduces Fig. 3: the same cloning experiment on the Small core.
func RunFig3(ctx context.Context, b Budget) (CloningResult, error) {
	return runCloningExperiment(ctx, "fig3", platform.Small(), "gradient-descent",
		func() tuner.Tuner { return tuner.NewGradientDescent() }, b, nil)
}

// RunFig4 reproduces Fig. 4: cloning on the Large core with the GA baseline.
// The paper grants the GA the same number of tuning epochs the GD runs of
// Fig. 2 used; pass Fig. 2's EpochsPerBenchmark as gdEpochs to reproduce
// that. A nil map falls back to the budget's CloneEpochs.
func RunFig4(ctx context.Context, b Budget, gdEpochs map[string]int) (CloningResult, error) {
	return runCloningExperiment(ctx, "fig4", platform.Large(), "genetic-algorithm",
		func() tuner.Tuner { return tuner.NewGeneticAlgorithm() }, b, gdEpochs)
}
