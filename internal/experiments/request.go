package experiments

import (
	"fmt"
	"math"

	"micrograd/internal/multicore"
	"micrograd/internal/platform"
	"micrograd/internal/stress"
	"micrograd/internal/tuner"
	"micrograd/internal/workloads"
)

// Request is one run as the mgbench flags and an mgserve job body describe
// it. Kind selects the run: a stress kind name stress.KindByName accepts,
// "cloning" (the benchmark-suite cloning experiment) or "tunercmp" (the
// equal-budget tuner comparison); empty leaves the runs to the caller, as
// mgbench -experiment does. The other fields override the budget
// (RunBudget) and the placement (Normalized); zero keeps a default, and
// fields a kind does not use are ignored.
type Request struct {
	Kind string `json:"kind"`
	// Quick selects the reduced CI-sized budget.
	Quick bool `json:"quick,omitempty"`
	// Instructions overrides the per-evaluation simulation window.
	Instructions int `json:"instructions,omitempty"`
	// Epochs overrides both the stress and cloning epoch bounds.
	Epochs int `json:"epochs,omitempty"`
	// Seed overrides the run's random seed.
	Seed int64 `json:"seed,omitempty"`
	// Budget caps the proposed evaluations per tuning run.
	Budget int `json:"budget,omitempty"`
	// PowerCapW constrains stress searches to kernels under the cap.
	PowerCapW float64 `json:"power_cap_w,omitempty"`
	// Parallel is the run's evaluation fan-out (mgserve clamps it to its
	// per-job cap).
	Parallel int `json:"parallel,omitempty"`
	// Tuner names the stress-tuning mechanism (empty = gradient descent).
	Tuner string `json:"tuner,omitempty"`
	// Tuners lists the tunercmp challengers (nil = the default set).
	Tuners []string `json:"tuners,omitempty"`
	// Core names the core kind ("small", "large"; empty = large).
	Core string `json:"core,omitempty"`
	// Cores is the co-running core count of the multi-core kinds (zero =
	// the FreqsGHz count, else 2).
	Cores int `json:"cores,omitempty"`
	// Rows and Cols shape the spatial PDN/thermal grid (both zero =
	// multicore.DefaultGrid for the core count).
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Floorplan places the spatial kinds' cores on the grid, one "row,col"
	// per core (multicore.ParseFloorplan; empty = round-robin).
	Floorplan string `json:"floorplan,omitempty"`
	// FreqsGHz warm-starts the dvfs-noise-virus per-core clocks and sets
	// the core count.
	FreqsGHz []float64 `json:"freqs_ghz,omitempty"`
	// Benchmarks restricts the cloning experiment's suite.
	Benchmarks []string `json:"benchmarks,omitempty"`
}

// Normalized returns the request with its placement defaults applied: the
// large core, as many cores as FreqsGHz has clocks (else 2 when Cores is
// zero), and multicore.DefaultGrid for that count when the grid is unset.
func (r Request) Normalized() Request {
	if r.Core == "" {
		r.Core = string(platform.LargeCore)
	}
	if len(r.FreqsGHz) > 0 {
		r.Cores = len(r.FreqsGHz)
	} else if r.Cores == 0 {
		r.Cores = 2
	}
	if r.Rows == 0 || r.Cols == 0 {
		r.Rows, r.Cols = multicore.DefaultGrid(r.Cores)
	}
	return r
}

// RunBudget is the budget the request runs under: the quick or full budget
// with the request's overrides applied. A front end adds what it owns on
// top (mgserve: the Parallel cap, the shared caches, the row stream).
func (r Request) RunBudget() Budget {
	b := FullBudget()
	if r.Quick {
		b = QuickBudget()
	}
	if r.Instructions > 0 {
		b.DynamicInstructions = r.Instructions
	}
	if r.Epochs > 0 {
		b.CloneEpochs, b.StressEpochs = r.Epochs, r.Epochs
	}
	if r.Seed != 0 {
		b.Seed = r.Seed
	}
	if len(r.Benchmarks) > 0 {
		b.Benchmarks = r.Benchmarks
	}
	b.MaxEvaluations, b.PowerCapW, b.Tuner, b.Parallel = r.Budget, r.PowerCapW, r.Tuner, r.Parallel
	return b
}

// Validate rejects a request that cannot run: an unknown name, a negative
// override (the seed may take any value), a grid with one dimension unset,
// a clock that is not positive and finite, a floorplan that does not fit,
// a chip kind on one core, and a halving tuner without the budget it plans
// its rungs from.
func (r Request) Validate() error {
	for _, f := range []struct {
		name  string
		value float64
	}{
		{"instructions", float64(r.Instructions)},
		{"epochs", float64(r.Epochs)},
		{"budget", float64(r.Budget)},
		{"power_cap_w", r.PowerCapW},
		{"parallel", float64(r.Parallel)},
		{"cores", float64(r.Cores)},
		{"rows", float64(r.Rows)},
		{"cols", float64(r.Cols)},
	} {
		if !(f.value >= 0) { // also catches a NaN power cap
			return fmt.Errorf("experiments: request has negative %s %v", f.name, f.value)
		}
	}
	if (r.Rows == 0) != (r.Cols == 0) {
		return fmt.Errorf("experiments: grid %dx%d sets only one dimension (set both, or neither for the default)", r.Rows, r.Cols)
	}
	for i, f := range r.FreqsGHz {
		if !(f > 0) || math.IsInf(f, 0) { // !(f>0) also catches NaN
			return fmt.Errorf("experiments: freqs_ghz entry %d is %g GHz, want a positive finite clock", i, f)
		}
	}
	var tn tuner.Tuner
	if r.Tuner != "" {
		var err error
		if tn, err = tuner.ByName(r.Tuner); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	}
	for _, name := range r.Tuners {
		if _, err := tuner.ByName(name); err != nil {
			return fmt.Errorf("experiments: tuners: %w", err)
		}
	}
	if r.Core != "" {
		if _, err := platform.ByName(r.Core); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	}
	for _, name := range r.Benchmarks {
		if _, err := workloads.ByName(name); err != nil {
			return fmt.Errorf("experiments: benchmarks: %w", err)
		}
	}
	n := r.Normalized()
	if _, err := parseFloorplan(r.Floorplan, n.Rows, n.Cols, n.Cores); err != nil {
		return err
	}
	chip := r.Kind == "tunercmp"
	switch r.Kind {
	case "", "cloning", "tunercmp":
	default:
		kind, err := stress.KindByName(r.Kind)
		if err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
		chip = kind.MultiCore()
	}
	if chip && n.Cores < 2 {
		return fmt.Errorf("experiments: %s needs at least 2 cores, have %d", r.Kind, n.Cores)
	}
	// tunercmp derives its own budget; the cloning experiment ignores Tuner.
	if _, halving := tn.(*tuner.SuccessiveHalving); halving && r.Budget == 0 && r.Kind != "cloning" && r.Kind != "tunercmp" {
		return fmt.Errorf("experiments: tuner %q needs a budget", r.Tuner)
	}
	return nil
}

// parseFloorplan parses a floorplan of cores cores on a rows×cols grid
// (nil for empty, the round-robin default).
func parseFloorplan(s string, rows, cols, cores int) (*multicore.Floorplan, error) {
	if s == "" {
		return nil, nil
	}
	fp, err := multicore.ParseFloorplan(s, rows, cols)
	if err == nil {
		err = fp.Validate(cores)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: floorplan: %w", err)
	}
	return &fp, nil
}
