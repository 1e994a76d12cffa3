package experiments

import (
	"context"
	"fmt"

	"micrograd/internal/metrics"
	"micrograd/internal/platform"
	"micrograd/internal/powersim"
	"micrograd/internal/program"
	"micrograd/internal/report"
	"micrograd/internal/sched"
	"micrograd/internal/stress"
)

// StressKindRun is one tuned stress test of a given kind, together with the
// full power characterization of its best kernel (the tuner only tracks the
// stressed metric; the comparison table wants all of them).
type StressKindRun struct {
	Kind stress.Kind
	Core platform.CoreKind
	// Report is the tuning outcome.
	Report stress.Report
	// Full is the best kernel's complete metric vector, re-measured with
	// power collection on.
	Full metrics.Vector
	// Trace is the best kernel's windowed power trace (cmd/mgbench dumps it
	// with -trace).
	Trace powersim.PowerTrace
}

// RunStressKind tunes one single-core stress kind on the named core under
// the budget's tuner (gradient descent by default) and characterizes the
// resulting kernel.
func RunStressKind(ctx context.Context, kind stress.Kind, coreName string, b Budget) (StressKindRun, error) {
	b = b.normalized()
	core, err := platform.ByName(coreName)
	if err != nil {
		return StressKindRun{}, err
	}
	newPlatform, release := b.CorePlatforms(core)
	defer release()
	opts, err := b.StressOptions(newPlatform, b.Parallel, string(kind))
	if err != nil {
		return StressKindRun{}, err
	}
	rep, err := stress.Run(ctx, kind, opts)
	if err != nil {
		return StressKindRun{}, fmt.Errorf("experiments: stress %s: %w", kind, err)
	}
	// Characterize the winning kernel on the run's own tuning platform with
	// power collection on, so every kind's row carries the same metric set.
	// The response owns its trace, so it outlives the platforms' release.
	resp, err := opts.Platform.EvaluateRequest(platform.EvalRequest{
		Programs: []*program.Program{rep.Program},
		Options:  b.evalOptions(),
		Detail:   platform.DetailTrace,
	})
	if err != nil {
		return StressKindRun{}, fmt.Errorf("experiments: characterizing %s kernel: %w", kind, err)
	}
	return StressKindRun{
		Kind:   kind,
		Core:   core.Kind,
		Report: rep,
		Full:   resp.Metrics,
		Trace:  resp.Trace,
	}, nil
}

// Render renders the single-kind run as a summary table.
func (r StressKindRun) Render() string {
	dir := "min"
	if r.Report.Maximize {
		dir = "max"
	}
	t := report.NewTable(fmt.Sprintf("Stress test %q on the %s core (%s %s)", r.Kind, r.Core, dir, r.Report.Metric),
		"quantity", "value")
	t.AddRow("best "+r.Report.Metric, fmt.Sprintf("%.4g", r.Report.BestValue))
	t.AddRow("epochs / evaluations", fmt.Sprintf("%d / %d", r.Report.Epochs, r.Report.Evaluations))
	t.AddRow("kernel config", r.Report.Config.String())
	for _, row := range transientRows(r.Full) {
		t.AddRow(row[0], row[1])
	}
	return t.String()
}

// KindResult is one kind run's outcome: the canonical kind name, the
// tuning report and best kernel's power trace (the summed chip trace for
// the chip kinds; zero for cloning and tunercmp) and the rendered table.
type KindResult struct {
	Kind   string
	Report stress.Report
	Trace  powersim.PowerTrace
	Output string
	series []report.Series // cloning's and tunercmp's; nil for a stress kind
}

// Series returns the run's progression series, what a CSV dump holds; a
// stress kind's is built here, so mgserve, which streams rows, builds none.
func (r KindResult) Series() []report.Series {
	if r.series != nil {
		return r.series
	}
	return []report.Series{r.Report.ProgressionSeries(r.Kind)}
}

// RunKind runs every kind Request.Validate accepts, for mgbench -kind and
// every mgserve job: "cloning" is RunFig2 on the large core and RunFig3 on
// the small one, "tunercmp" is RunTunerCmp, and a stress kind is tuned on
// the chip it needs, placed as req.Normalized() says, and its best kernel
// characterized, without the comparison runs RunCoRun, RunDVFS and
// RunSpatial add.
func RunKind(ctx context.Context, req Request, b Budget) (KindResult, error) {
	req = req.Normalized()
	switch req.Kind {
	case "cloning":
		run := RunFig2
		if req.Core == string(platform.SmallCore) {
			run = RunFig3
		}
		res, err := run(ctx, b)
		if err != nil {
			return KindResult{}, err
		}
		return KindResult{Kind: req.Kind, Output: res.Render(), series: res.Series()}, nil
	case "tunercmp":
		res, err := RunTunerCmp(ctx, req.Core, req.Cores, req.Rows, req.Cols, req.Tuners, b)
		if err != nil {
			return KindResult{}, err
		}
		return KindResult{Kind: req.Kind, Output: res.Render(), series: res.Progressions}, nil
	}
	kind, err := stress.KindByName(req.Kind)
	if err != nil {
		return KindResult{}, err
	}
	// Each runner's render is called only once it has succeeded.
	var (
		rep    stress.Report
		trace  powersim.PowerTrace
		render func() string
	)
	switch kind {
	case stress.CoRunNoiseVirus:
		res, runErr := runCoRun(ctx, req.Core, req.Cores, b, false)
		rep, trace, render, err = res.Report, res.Trace, res.Render, runErr
	case stress.DVFSNoiseVirus:
		res, runErr := runDVFS(ctx, req.Core, req.Cores, req.FreqsGHz, b, false)
		rep, trace, render, err = res.Report, res.Trace, res.Render, runErr
	case stress.SpatialNoiseVirus, stress.HotspotMigrationVirus:
		res, runErr := runSpatial(ctx, kind, req.Core, req.Cores, req.Rows, req.Cols, req.Floorplan, b, false)
		rep, trace, render, err = res.Report, res.Trace, res.Render, runErr
	default:
		res, runErr := RunStressKind(ctx, kind, req.Core, b)
		rep, trace, render, err = res.Report, res.Trace, res.Render, runErr
	}
	if err != nil {
		return KindResult{}, err
	}
	return KindResult{Kind: string(kind), Report: rep, Trace: trace, Output: render()}, nil
}

// transientRows extracts the shared power-characterization rows of a metric
// vector.
func transientRows(v metrics.Vector) [][2]string {
	return [][2]string{
		{"ipc", fmt.Sprintf("%.3f", v[metrics.IPC])},
		{"dynamic power (W)", fmt.Sprintf("%.3f", v[metrics.DynamicPowerW])},
		{"worst droop (mV)", fmt.Sprintf("%.1f", v[metrics.WorstDroopMV])},
		{"max dI/dt (W/cycle)", fmt.Sprintf("%.4f", v[metrics.MaxDIDTWPerCycle])},
		{"hotspot temp (°C)", fmt.Sprintf("%.1f", v[metrics.TempC])},
	}
}

// StressCompareResult is the four-way stress comparison: every built-in
// stress kind tuned with gradient descent on the same core, each kernel
// characterized across the full power metric set.
type StressCompareResult struct {
	Core platform.CoreKind
	Runs []StressKindRun
}

// RunStressCompare tunes all four stress kinds on the Large core. The kinds
// run concurrently on the engine (splitting the worker budget with the
// per-epoch fan-out, like the other stress experiments).
func RunStressCompare(ctx context.Context, b Budget) (StressCompareResult, error) {
	b = b.normalized()
	kinds := stress.Kinds()
	outer, inner := splitWorkers(b.Parallel, len(kinds))
	bb := b
	bb.Parallel = inner
	runs := make([]StressKindRun, len(kinds))
	err := sched.Run(ctx, outer, len(kinds), func(ctx context.Context, i int) error {
		run, err := RunStressKind(ctx, kinds[i], string(platform.LargeCore), bb)
		if err != nil {
			return err
		}
		runs[i] = run
		return nil
	})
	if err != nil {
		return StressCompareResult{}, err
	}
	return StressCompareResult{Core: platform.LargeCore, Runs: runs}, nil
}

// Render renders the comparison table.
func (r StressCompareResult) Render() string {
	t := report.NewTable(fmt.Sprintf("Stress kinds compared on the %s core", r.Core),
		"kind", "objective", "best", "power W", "droop mV", "dI/dt W/cyc", "temp °C", "duty", "burst", "evals")
	for _, run := range r.Runs {
		obj := "min " + run.Report.Metric
		if run.Report.Maximize {
			obj = "max " + run.Report.Metric
		}
		burst := "-"
		if run.Report.DutyCycle < 1 {
			burst = fmt.Sprintf("%d", run.Report.BurstLen)
		}
		t.AddRow(string(run.Kind), obj,
			fmt.Sprintf("%.4g", run.Report.BestValue),
			fmt.Sprintf("%.3f", run.Full[metrics.DynamicPowerW]),
			fmt.Sprintf("%.1f", run.Full[metrics.WorstDroopMV]),
			fmt.Sprintf("%.4f", run.Full[metrics.MaxDIDTWPerCycle]),
			fmt.Sprintf("%.1f", run.Full[metrics.TempC]),
			fmt.Sprintf("%.1f", run.Report.DutyCycle),
			burst,
			fmt.Sprintf("%d", run.Report.Evaluations),
		)
	}
	return t.String()
}
