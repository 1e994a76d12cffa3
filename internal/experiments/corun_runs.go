package experiments

import (
	"context"
	"fmt"
	"strings"

	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/multicore"
	"micrograd/internal/platform"
	"micrograd/internal/powersim"
	"micrograd/internal/report"
	"micrograd/internal/sched"
	"micrograd/internal/stress"
)

// CoRunResult is the outcome of the chip-level co-run stress experiment: the
// tuned corun-noise-virus on N co-running cores next to the single-core
// voltage-noise-virus baseline on the same core kind — the comparison that
// shows how much harder phase-aligned co-runners hit the shared PDN than any
// one core can.
type CoRunResult struct {
	// Core is the replicated core kind; Cores how many copies co-run.
	Core  platform.CoreKind
	Cores int
	// Report is the corun-noise-virus tuning outcome (chip droop maximized).
	Report stress.Report
	// Baseline is the single-core voltage-noise-virus run on the same core
	// (zero when the result came from RunKind, which skips it).
	Baseline stress.Report
	// Full is the best co-run configuration's complete chip metric vector.
	Full metrics.Vector
	// Trace is the best configuration's summed chip power trace.
	Trace powersim.PowerTrace
}

// RunCoRun tunes the corun-noise-virus on cores copies of the named core
// sharing one PDN, runs the single-core voltage-noise-virus baseline, and
// characterizes the winning co-run configuration. The two tuning runs execute
// concurrently on the engine; inside the co-run, per-candidate fan-out and
// per-core simulation compose on the same worker budget.
func RunCoRun(ctx context.Context, coreName string, cores int, b Budget) (CoRunResult, error) {
	return runCoRun(ctx, coreName, cores, b, true)
}

func runCoRun(ctx context.Context, coreName string, cores int, b Budget, withBaseline bool) (CoRunResult, error) {
	b = b.normalized()
	core, err := platform.ByName(coreName)
	if err != nil {
		return CoRunResult{}, err
	}
	spec := multicore.Homogeneous(core, cores)

	nRuns := 1
	if withBaseline {
		nRuns = 2
	}
	outer, inner, candWorkers, corePar := coRunBudgetSplit(b.Parallel, nRuns, cores)
	var corun, baseline stress.Report
	var chip platform.Platform
	err = sched.Run(ctx, outer, nRuns, func(ctx context.Context, i int) (err error) {
		if i == 0 {
			if corun, chip, err = b.tuneChip(ctx, stress.CoRunNoiseVirus, spec, candWorkers, corePar, "CoRun", nil); err != nil {
				return fmt.Errorf("experiments: corun tuning: %w", err)
			}
			return nil
		}
		newPlatform, release := b.CorePlatforms(core)
		defer release()
		opts, err := b.StressOptions(newPlatform, inner, "SingleCore")
		if err != nil {
			return err
		}
		if baseline, err = stress.Run(ctx, stress.VoltageNoiseVirus, opts); err != nil {
			return fmt.Errorf("experiments: single-core baseline: %w", err)
		}
		return nil
	})
	if err != nil {
		return CoRunResult{}, err
	}

	full, trace, err := characterizeCoRun(chip, stress.CoRunNoiseVirus, corun.Config, b)
	if err != nil {
		return CoRunResult{}, err
	}
	return CoRunResult{
		Core:     core.Kind,
		Cores:    cores,
		Report:   corun,
		Baseline: baseline,
		Full:     full,
		Trace:    trace,
	}, nil
}

// coRunBudgetSplit divides the engine's worker budget across a chip-level
// stress experiment's fan-out levels: nRuns concurrent tuning runs (outer),
// per-epoch candidate evaluations within each run (candWorkers), and
// per-core simulation inside each evaluation (corePar). Candidate workers ×
// cores stays near the inner budget instead of multiplying to Parallel²,
// and with -parallel 1 the whole run stays serial.
func coRunBudgetSplit(parallel, nRuns, cores int) (outer, inner, candWorkers, corePar int) {
	outer, inner = splitWorkers(parallel, nRuns)
	candWorkers = inner / cores
	if candWorkers < 1 {
		candWorkers = 1
	}
	corePar = cores
	if corePar > inner {
		corePar = inner
	}
	return outer, inner, candWorkers, corePar
}

// tuneChip tunes kind on chips of spec, sized by coRunBudgetSplit's
// candWorkers and corePar and streamed as series; set, when not nil, adjusts
// the options first. It returns the report and the run's own tuning chip.
func (b Budget) tuneChip(ctx context.Context, kind stress.Kind, spec multicore.CoRunSpec, candWorkers, corePar int, series string, set func(*stress.Options)) (stress.Report, platform.Platform, error) {
	opts, err := b.StressOptions(func() (platform.Platform, error) { return multicore.New(spec, corePar) }, candWorkers, series)
	if err != nil {
		return stress.Report{}, nil, err
	}
	if set != nil {
		set(&opts)
	}
	rep, err := stress.Run(ctx, kind, opts)
	return rep, opts.Platform, err
}

// characterizeCoRun re-evaluates a tuned chip configuration on a run's
// tuning chip — per-core kernels synthesized from the config by the
// normalized budget's synthesizer, FREQ_GHZ clock overrides applied when
// the space tunes them — and returns the full chip metric vector plus the
// summed chip trace.
func characterizeCoRun(chip platform.Platform, kind stress.Kind, cfg knobs.Config, b Budget) (metrics.Vector, powersim.PowerTrace, error) {
	session := platform.NewEvalSession(chip, b.Synth)
	resp, err := session.Evaluate(platform.EvalRequest{
		Name:    string(kind),
		Config:  cfg,
		Options: b.evalOptions(),
		Detail:  platform.DetailTrace,
	})
	if err != nil {
		return nil, powersim.PowerTrace{}, fmt.Errorf("experiments: characterizing %s: %w", kind, err)
	}
	return resp.Metrics, resp.Trace, nil
}

// Series returns the progression series (co-run chip droop, plus the
// single-core baseline droop when it was run) for CSV dumps.
func (r CoRunResult) Series() []report.Series {
	out := []report.Series{r.Report.ProgressionSeries("CoRun")}
	if r.Baseline.Epochs > 0 {
		out = append(out, r.Baseline.ProgressionSeries("SingleCore"))
	}
	return out
}

// Render renders the co-run experiment as a summary table.
func (r CoRunResult) Render() string {
	t := report.NewTable(fmt.Sprintf("Co-run stress: %d x %s core on a shared PDN (max %s)",
		r.Cores, r.Core, r.Report.Metric), "quantity", "value")
	t.AddRow("chip worst droop (mV)", fmt.Sprintf("%.1f", r.Report.BestValue))
	if r.Baseline.Epochs > 0 {
		t.AddRow("single-core baseline droop (mV)", fmt.Sprintf("%.1f", r.Baseline.BestValue))
		if r.Baseline.BestValue > 0 {
			t.AddRow("co-run / single-core droop", fmt.Sprintf("%.2fx", r.Report.BestValue/r.Baseline.BestValue))
		}
	}
	return renderChipRows(t, r.Report, r.Full)
}

// renderChipRows adds the rows every chip stress table ends with — the
// winner's chip power, dI/dt and hotspot, its phase offsets and burst
// shape, the tuning cost and its kernel configuration — and renders t.
func renderChipRows(t *report.Table, rep stress.Report, full metrics.Vector) string {
	offsets := make([]string, len(rep.PhaseOffsets))
	for i, o := range rep.PhaseOffsets {
		offsets[i] = fmt.Sprintf("%d", o)
	}
	t.AddRow("chip power (W)", fmt.Sprintf("%.3f", full[metrics.ChipPowerW]))
	t.AddRow("chip max dI/dt (W/ns)", fmt.Sprintf("%.4f", full[metrics.ChipMaxDIDTWPerNS]))
	t.AddRow("chip hotspot temp (°C)", fmt.Sprintf("%.1f", full[metrics.ChipTempC]))
	t.AddRow("phase offsets (instrs)", strings.Join(offsets, ", "))
	t.AddRow("duty cycle / burst len", fmt.Sprintf("%.1f / %d", rep.DutyCycle, rep.BurstLen))
	t.AddRow("epochs / evaluations", fmt.Sprintf("%d / %d", rep.Epochs, rep.Evaluations))
	t.AddRow("kernel config", rep.Config.String())
	return t.String()
}
