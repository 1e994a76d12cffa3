package experiments

import (
	"context"
	"fmt"

	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/multicore"
	"micrograd/internal/platform"
	"micrograd/internal/powersim"
	"micrograd/internal/report"
	"micrograd/internal/stress"
)

// SpatialResult is the outcome of the spatial-grid chip stress experiment:
// the tuned spatially-targeted virus on a rows×cols PDN/thermal grid next to
// the spatially-oblivious corun-noise-virus — tuned on the lumped chip, then
// re-scored on the grid — the comparison that shows what knowing the
// floorplan buys a droop virus.
type SpatialResult struct {
	// Core is the replicated core kind; Cores how many copies co-run.
	Core  platform.CoreKind
	Cores int
	// Rows, Cols and Floorplan describe the spatial grid the chip ran on.
	Rows, Cols int
	Floorplan  multicore.Floorplan
	// Report is the spatial virus tuning outcome on the grid chip.
	Report stress.Report
	// Oblivious is the corun-noise-virus tuned on the *lumped* chip — the
	// spatially-oblivious attacker (zero when the result came from
	// RunKind, which skips the comparison).
	Oblivious stress.Report
	// ObliviousOnGrid is the oblivious winner's chip-worst node droop when
	// its configuration is re-evaluated on the grid chip (0 without the
	// comparison run). The spatial tuning warm-starts from that same
	// configuration, so Report.BestValue ≥ ObliviousOnGrid by construction;
	// the margin is what spatial targeting adds.
	ObliviousOnGrid float64
	// Full is the best spatial configuration's complete chip metric vector,
	// including the per-node droop/temperature metrics.
	Full metrics.Vector
	// Trace is the best configuration's summed chip power trace.
	Trace powersim.PowerTrace
}

// RunSpatial tunes the spatial-noise-virus on cores copies of the named core
// over a rows×cols PDN/thermal grid (floorplan maps cores onto nodes in the
// multicore.ParseFloorplan syntax; empty uses the round-robin default),
// after first tuning the spatially-oblivious corun-noise-virus on the
// lumped version of the same chip. The oblivious
// winner is re-scored on the grid and seeds the spatial search, so the
// experiment isolates exactly the gain from exploiting locality.
func RunSpatial(ctx context.Context, coreName string, cores, rows, cols int, floorplan string, b Budget) (SpatialResult, error) {
	return runSpatial(ctx, stress.SpatialNoiseVirus, coreName, cores, rows, cols, floorplan, b, true)
}

// spatialInitial translates the spatially-oblivious winner into the spatial
// stress space: the knob names coincide and the finer spatial phase grid
// contains every coarse offset, so the translation is lossless and the
// spatial tuning genuinely starts from the oblivious optimum.
func spatialInitial(space *knobs.Space, cfg knobs.Config) (knobs.Config, error) {
	values := make(map[string]float64)
	for _, name := range cfg.Space().Names() {
		if v, ok := cfg.ValueByName(name); ok {
			values[name] = v
		}
	}
	return space.ConfigFromValues(values)
}

func runSpatial(ctx context.Context, kind stress.Kind, coreName string, cores, rows, cols int, floorplan string, b Budget, withOblivious bool) (SpatialResult, error) {
	b = b.normalized()
	core, err := platform.ByName(coreName)
	if err != nil {
		return SpatialResult{}, err
	}
	fp, err := parseFloorplan(floorplan, rows, cols, cores)
	if err != nil {
		return SpatialResult{}, err
	}
	lumped := multicore.Homogeneous(core, cores)
	grid := lumped.WithGrid(rows, cols, fp)
	if err := grid.Validate(); err != nil {
		return SpatialResult{}, err
	}

	// The two tuning runs are sequential — the spatial search warm-starts
	// from the oblivious winner — so each gets the full worker budget.
	_, _, candWorkers, corePar := coRunBudgetSplit(b.Parallel, 1, cores)
	var oblivious stress.Report
	var initial knobs.Config
	space := knobs.SpatialStressSpace(cores)
	if withOblivious {
		if oblivious, _, err = b.tuneChip(ctx, stress.CoRunNoiseVirus, lumped, candWorkers, corePar, "ObliviousCoRun", nil); err != nil {
			return SpatialResult{}, fmt.Errorf("experiments: oblivious co-run tuning: %w", err)
		}
		if initial, err = spatialInitial(space, oblivious.Config); err != nil {
			return SpatialResult{}, fmt.Errorf("experiments: seeding spatial search: %w", err)
		}
	}

	spatial, chip, err := b.tuneChip(ctx, kind, grid, candWorkers, corePar, "Spatial", func(o *stress.Options) {
		o.Space, o.Initial = space, initial
	})
	if err != nil {
		return SpatialResult{}, fmt.Errorf("experiments: spatial tuning: %w", err)
	}

	// Both configurations are scored on the spatial run's own grid chip.
	var obliviousOnGrid float64
	if withOblivious {
		gridScore, _, err := characterizeCoRun(chip, stress.CoRunNoiseVirus, oblivious.Config, b)
		if err != nil {
			return SpatialResult{}, err
		}
		obliviousOnGrid = gridScore[metrics.ChipWorstDroopMV]
	}
	full, trace, err := characterizeCoRun(chip, kind, spatial.Config, b)
	if err != nil {
		return SpatialResult{}, err
	}
	return SpatialResult{
		Core:            core.Kind,
		Cores:           cores,
		Rows:            rows,
		Cols:            cols,
		Floorplan:       *grid.Floorplan,
		Report:          spatial,
		Oblivious:       oblivious,
		ObliviousOnGrid: obliviousOnGrid,
		Full:            full,
		Trace:           trace,
	}, nil
}

// Series returns the progression series (spatial virus value, plus the
// oblivious baseline droop when it was run) for CSV dumps.
func (r SpatialResult) Series() []report.Series {
	out := []report.Series{r.Report.ProgressionSeries("Spatial")}
	if r.Oblivious.Epochs > 0 {
		out = append(out, r.Oblivious.ProgressionSeries("ObliviousCoRun"))
	}
	return out
}

// Render renders the spatial experiment as a summary table, including the
// per-node droop/temperature map of the winning configuration.
func (r SpatialResult) Render() string {
	title := fmt.Sprintf("Spatial chip stress: %d x %s core on a %dx%d PDN/thermal grid (max %s)",
		r.Cores, r.Core, r.Rows, r.Cols, r.Report.Metric)
	t := report.NewTable(title, "quantity", "value")
	t.AddRow(fmt.Sprintf("spatial %s", r.Report.Metric), fmt.Sprintf("%.1f", r.Report.BestValue))
	if r.Oblivious.Epochs > 0 {
		t.AddRow("oblivious co-run droop on lumped chip (mV)", fmt.Sprintf("%.1f", r.Oblivious.BestValue))
		t.AddRow("oblivious config re-scored on grid (mV)", fmt.Sprintf("%.1f", r.ObliviousOnGrid))
		if r.ObliviousOnGrid > 0 {
			t.AddRow("spatial / oblivious-on-grid droop", fmt.Sprintf("%.2fx", r.Report.BestValue/r.ObliviousOnGrid))
		}
	}
	t.AddRow("floorplan (row,col per core)", r.Floorplan.String())
	for row := 0; row < r.Rows; row++ {
		for col := 0; col < r.Cols; col++ {
			t.AddRow(fmt.Sprintf("node (%d,%d) droop (mV) / temp (°C)", row, col),
				fmt.Sprintf("%.1f / %.1f", r.Full[metrics.NodeDroopMV(row, col)], r.Full[metrics.NodeTempC(row, col)]))
		}
	}
	return renderChipRows(t, r.Report, r.Full)
}
