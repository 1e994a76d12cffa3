package experiments

import (
	"context"
	"fmt"

	"micrograd/internal/knobs"
	"micrograd/internal/multicore"
	"micrograd/internal/platform"
	"micrograd/internal/report"
	"micrograd/internal/stress"
	"micrograd/internal/tuner"
)

// DefaultTunerCmpChallengers is the mechanism set the tuner comparison pits
// against the gradient-descent baseline by default.
var DefaultTunerCmpChallengers = []string{"cmaes", "ga", "halving-gd", "halving-cmaes"}

// TunerCmpEntry is one tuner's outcome at the shared evaluation budget.
type TunerCmpEntry struct {
	// Tuner is the mechanism's registry name.
	Tuner string
	// BestValue is the best stressed-metric value it reached.
	BestValue float64
	// Evaluations is the number of evaluations it proposed (its budget
	// spend); Simulations is how many the platform actually ran after
	// memoization.
	Evaluations int
	Simulations int
	// ReachedTarget reports whether it matched the baseline's best value,
	// and EvalsToTarget how many proposed evaluations that took (equal to
	// Evaluations: a run stops as soon as it reaches the target).
	ReachedTarget bool
	EvalsToTarget int
	// Epochs is the length of the tuning run.
	Epochs int
}

// TunerCmpResult is the equal-budget tuner comparison: gradient descent (the
// paper's mechanism) sets the bar on a spatial-grid chip stress problem, and
// every challenger then runs with the baseline's best value as its early-stop
// target under the same proposed-evaluation budget. A challenger that stops
// with fewer evaluations than the baseline needed reached the same stress
// level cheaper.
type TunerCmpResult struct {
	// Core is the replicated core kind; Cores how many copies co-run on the
	// Rows x Cols spatial grid.
	Core       platform.CoreKind
	Cores      int
	Rows, Cols int
	// Kind and Metric describe the shared stress problem.
	Kind   stress.Kind
	Metric string
	// Budget is the proposed-evaluation budget every tuner ran under.
	Budget int
	// Target is the baseline's best value, the bar the challengers chase.
	Target float64
	// BaselineEvals is how many evaluations the baseline needed to first
	// reach its own best value (its budget spend may be larger: the run
	// continues hoping to improve).
	BaselineEvals int
	// Baseline is the gradient-descent entry; Entries the challengers, in
	// the order they were requested.
	Baseline TunerCmpEntry
	Entries  []TunerCmpEntry
	// Progressions holds every run's best-value-vs-cumulative-evaluations
	// curve (x = proposed evaluations spent, y = best value so far), one
	// series per tuner — the equal-budget version of the paper's Fig. 5/6
	// convergence plots.
	Progressions []report.Series
}

// RunTunerCmp runs the tuner comparison on cores copies of the named core
// over a rows x cols spatial PDN grid, stressing the chip-worst node droop
// (the spatial-noise-virus problem). tuners lists the challenger mechanisms
// by registry name (nil = DefaultTunerCmpChallengers); b.MaxEvaluations is
// the shared budget (zero derives one from b.StressEpochs). Results are
// bit-identical at any b.Parallel.
func RunTunerCmp(ctx context.Context, coreName string, cores, rows, cols int, tuners []string, b Budget) (TunerCmpResult, error) {
	b = b.normalized()
	if len(tuners) == 0 {
		tuners = DefaultTunerCmpChallengers
	}
	for _, name := range tuners {
		if _, err := tuner.ByName(name); err != nil {
			return TunerCmpResult{}, fmt.Errorf("experiments: tunercmp challenger: %w", err)
		}
	}
	core, err := platform.ByName(coreName)
	if err != nil {
		return TunerCmpResult{}, err
	}
	spec := multicore.Homogeneous(core, cores).WithGrid(rows, cols, nil)
	if err := spec.Validate(); err != nil {
		return TunerCmpResult{}, err
	}
	budget := b.MaxEvaluations
	if budget <= 0 {
		// Roughly what the paper's GD spends: two probes per knob per epoch
		// on the spatial space, for the budgeted number of epochs.
		budget = 2 * knobs.SpatialStressSpace(cores).Len() * b.StressEpochs
	}
	kind := stress.SpatialNoiseVirus

	// The comparison runs are sequential (each challenger needs the
	// baseline's target), so every run gets the full worker budget.
	_, _, candWorkers, corePar := coRunBudgetSplit(b.Parallel, 1, cores)
	tune := func(ctx context.Context, name string, target *float64) (stress.Report, error) {
		bb := b
		bb.Tuner = name
		rep, _, err := bb.tuneChip(ctx, kind, spec, candWorkers, corePar, name, func(o *stress.Options) {
			o.MaxEvaluations, o.TargetValue = budget, target
			// Stream on the cumulative-evaluations axis, the fair axis for
			// mechanisms with different per-epoch costs.
			o.OnEpoch = progress(b, name, func(p stress.EpochPoint) (x, y float64) {
				return float64(p.CumulativeEvaluations), p.BestValue
			})
		})
		return rep, err
	}

	base, err := tune(ctx, "gd", nil)
	if err != nil {
		return TunerCmpResult{}, fmt.Errorf("experiments: tunercmp baseline: %w", err)
	}
	target := base.BestValue
	res := TunerCmpResult{
		Core:          core.Kind,
		Cores:         cores,
		Rows:          rows,
		Cols:          cols,
		Kind:          kind,
		Metric:        base.Metric,
		Budget:        budget,
		Target:        target,
		BaselineEvals: evalsToValue(base, target),
		Baseline:      entryFrom("gd", base, target),
		Progressions:  []report.Series{progressionByEvals("gd", base)},
	}
	for _, name := range tuners {
		rep, err := tune(ctx, name, &target)
		if err != nil {
			return TunerCmpResult{}, fmt.Errorf("experiments: tunercmp challenger %s: %w", name, err)
		}
		res.Entries = append(res.Entries, entryFrom(name, rep, target))
		res.Progressions = append(res.Progressions, progressionByEvals(name, rep))
	}
	return res, nil
}

// evalsToValue returns the cumulative proposed-evaluation count at the first
// epoch whose best value reached v (0 when the run never did). Only the
// stress report's progression is consulted, so reduced-fidelity screening
// epochs — whose values are approximations — count toward the spend but
// cannot themselves claim the target: the engine only folds full-fidelity
// results into the best-so-far the progression tracks.
func evalsToValue(rep stress.Report, v float64) int {
	for _, p := range rep.Progression {
		if reached(p.BestValue, v, rep.Maximize) {
			return p.CumulativeEvaluations
		}
	}
	return 0
}

// reached reports whether best meets the target in the metric's direction.
func reached(best, target float64, maximize bool) bool {
	if maximize {
		return best >= target
	}
	return best <= target
}

// entryFrom summarizes one tuning run against the shared target.
func entryFrom(name string, rep stress.Report, target float64) TunerCmpEntry {
	e := TunerCmpEntry{
		Tuner:       name,
		BestValue:   rep.BestValue,
		Evaluations: rep.TunerResult.TotalEvaluations,
		Simulations: rep.Evaluations,
		Epochs:      rep.Epochs,
	}
	if reached(rep.BestValue, target, rep.Maximize) {
		e.ReachedTarget = true
		e.EvalsToTarget = evalsToValue(rep, target)
	}
	return e
}

// Render renders the comparison table.
func (r TunerCmpResult) Render() string {
	title := fmt.Sprintf("Tuner comparison: %s on %d x %s core (%dx%d grid), budget %d evaluations, target %s >= %.1f",
		r.Kind, r.Cores, r.Core, r.Rows, r.Cols, r.Budget, r.Metric, r.Target)
	t := report.NewTable(title, "tuner", "best", "evals", "sims", "to target", "epochs")
	row := func(e TunerCmpEntry, toTarget string) {
		t.AddRow(e.Tuner, fmt.Sprintf("%.1f", e.BestValue),
			fmt.Sprintf("%d", e.Evaluations), fmt.Sprintf("%d", e.Simulations),
			toTarget, fmt.Sprintf("%d", e.Epochs))
	}
	row(r.Baseline, fmt.Sprintf("%d", r.BaselineEvals))
	for _, e := range r.Entries {
		toTarget := "-"
		if e.ReachedTarget {
			toTarget = fmt.Sprintf("%d", e.EvalsToTarget)
		}
		row(e, toTarget)
	}
	return t.String()
}

// progressionByEvals converts a run's per-epoch progression onto the
// evaluations x-axis, the fair axis for mechanisms with different per-epoch
// costs.
func progressionByEvals(name string, rep stress.Report) report.Series {
	s := report.Series{Name: name}
	for _, p := range rep.Progression {
		s.AddPoint(float64(p.CumulativeEvaluations), p.BestValue)
	}
	return s
}
