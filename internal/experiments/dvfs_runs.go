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

// DVFSResult is the outcome of the heterogeneous-frequency chip stress
// experiment: the tuned dvfs-noise-virus (per-core clocks in the knob space,
// warm-started from the requested operating points) next to the homogeneous
// fixed-clock corun-noise-virus baseline on the same core kind — the
// comparison that shows what per-core DVFS adds on top of burst-phase
// alignment alone.
type DVFSResult struct {
	// Core is the replicated core kind; Cores how many copies co-run.
	Core  platform.CoreKind
	Cores int
	// StartFreqsGHz are the warm-start per-core clocks (mgbench -freqs);
	// nil when the tuner started from the space midpoint.
	StartFreqsGHz []float64
	// Report is the dvfs-noise-virus tuning outcome (chip droop maximized).
	Report stress.Report
	// Baseline is the homogeneous corun-noise-virus run on the same chip
	// (zero when the result came from RunKind, which skips it).
	Baseline stress.Report
	// Full is the best DVFS configuration's complete chip metric vector.
	Full metrics.Vector
	// Trace is the best configuration's summed chip power trace (a
	// time-domain trace when the tuned clocks end up heterogeneous).
	Trace powersim.PowerTrace
}

// RunDVFS tunes the dvfs-noise-virus on cores copies of the named core
// sharing one PDN — warm-starting the per-core FREQ_GHZ knobs at freqsGHz
// when given (e.g. 2.0,1.2 for a big.LITTLE-style split; nil starts at the
// space midpoint) — runs the homogeneous corun-noise-virus baseline, and
// characterizes the winning configuration at its tuned clocks.
func RunDVFS(ctx context.Context, coreName string, cores int, freqsGHz []float64, b Budget) (DVFSResult, error) {
	return runDVFS(ctx, coreName, cores, freqsGHz, b, true)
}

// dvfsInitial builds the warm-start configuration: the DVFS space midpoint
// with the per-core FREQ_GHZ knobs snapped to the requested clocks.
func dvfsInitial(cores int, freqsGHz []float64) (knobs.Config, error) {
	if freqsGHz == nil {
		return knobs.Config{}, nil
	}
	if len(freqsGHz) != cores {
		return knobs.Config{}, fmt.Errorf("experiments: %d start clocks for %d cores", len(freqsGHz), cores)
	}
	space := knobs.DVFSStressSpace(cores)
	cfg := space.MidConfig()
	for i, f := range freqsGHz {
		idx, ok := space.IndexOf(knobs.FreqGHzName(i))
		if !ok {
			return knobs.Config{}, fmt.Errorf("experiments: DVFS space missing %s", knobs.FreqGHzName(i))
		}
		cfg = cfg.WithIndex(idx, space.Def(idx).NearestIndex(f))
	}
	return cfg, nil
}

func runDVFS(ctx context.Context, coreName string, cores int, freqsGHz []float64, b Budget, withBaseline bool) (DVFSResult, error) {
	b = b.normalized()
	if cores < 2 {
		return DVFSResult{}, fmt.Errorf("experiments: DVFS co-run needs at least 2 cores, have %d", cores)
	}
	core, err := platform.ByName(coreName)
	if err != nil {
		return DVFSResult{}, err
	}
	initial, err := dvfsInitial(cores, freqsGHz)
	if err != nil {
		return DVFSResult{}, err
	}
	spec := multicore.Homogeneous(core, cores)

	nRuns := 1
	if withBaseline {
		nRuns = 2
	}
	outer, _, candWorkers, corePar := coRunBudgetSplit(b.Parallel, nRuns, cores)
	tune := func(ctx context.Context, kind stress.Kind, init knobs.Config, series string) (stress.Report, error) {
		opts, err := b.stressOptions(func() (platform.Platform, error) { return multicore.New(spec, corePar) }, candWorkers, series)
		if err != nil {
			return stress.Report{}, err
		}
		opts.Initial = init
		return stress.Run(ctx, kind, opts)
	}
	var dvfs, baseline stress.Report
	runs := []func(ctx context.Context) error{
		func(ctx context.Context) (err error) {
			if dvfs, err = tune(ctx, stress.DVFSNoiseVirus, initial, "DVFS"); err != nil {
				return fmt.Errorf("experiments: dvfs tuning: %w", err)
			}
			return nil
		},
	}
	if withBaseline {
		runs = append(runs, func(ctx context.Context) (err error) {
			if baseline, err = tune(ctx, stress.CoRunNoiseVirus, knobs.Config{}, "HomogeneousCoRun"); err != nil {
				return fmt.Errorf("experiments: homogeneous co-run baseline: %w", err)
			}
			return nil
		})
	}
	if err := sched.Run(ctx, outer, len(runs), func(ctx context.Context, i int) error {
		return runs[i](ctx)
	}); err != nil {
		return DVFSResult{}, err
	}

	full, trace, err := characterizeCoRun(spec, corePar, stress.DVFSNoiseVirus, dvfs.Config, b)
	if err != nil {
		return DVFSResult{}, err
	}
	return DVFSResult{
		Core:          core.Kind,
		Cores:         cores,
		StartFreqsGHz: freqsGHz,
		Report:        dvfs,
		Baseline:      baseline,
		Full:          full,
		Trace:         trace,
	}, nil
}

// Series returns the progression series (DVFS chip droop, plus the
// homogeneous baseline droop when it was run) for CSV dumps.
func (r DVFSResult) Series() []report.Series {
	out := []report.Series{r.Report.ProgressionSeries("DVFS")}
	if r.Baseline.Epochs > 0 {
		out = append(out, r.Baseline.ProgressionSeries("HomogeneousCoRun"))
	}
	return out
}

// Render renders the DVFS experiment as a summary table.
func (r DVFSResult) Render() string {
	freqs := make([]string, len(r.Report.FreqsGHz))
	for i, f := range r.Report.FreqsGHz {
		freqs[i] = fmt.Sprintf("%.1f", f)
	}
	title := fmt.Sprintf("DVFS co-run stress: %d x %s core, per-core clocks tuned (max %s)",
		r.Cores, r.Core, r.Report.Metric)
	t := report.NewTable(title, "quantity", "value")
	t.AddRow("chip worst droop (mV)", fmt.Sprintf("%.1f", r.Report.BestValue))
	if r.Baseline.Epochs > 0 {
		t.AddRow("homogeneous co-run baseline droop (mV)", fmt.Sprintf("%.1f", r.Baseline.BestValue))
		if r.Baseline.BestValue > 0 {
			t.AddRow("dvfs / homogeneous droop", fmt.Sprintf("%.2fx", r.Report.BestValue/r.Baseline.BestValue))
		}
	}
	t.AddRow("tuned per-core clocks (GHz)", strings.Join(freqs, ", "))
	if r.StartFreqsGHz != nil {
		starts := make([]string, len(r.StartFreqsGHz))
		for i, f := range r.StartFreqsGHz {
			starts[i] = fmt.Sprintf("%.1f", f)
		}
		t.AddRow("warm-start clocks (GHz)", strings.Join(starts, ", "))
	}
	return renderChipRows(t, r.Report, r.Full)
}
