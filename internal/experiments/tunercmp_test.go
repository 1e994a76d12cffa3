package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"micrograd/internal/platform"
	"micrograd/internal/stress"
)

// TestRunTunerCmpParallelMatchesSerial is the deterministic tuner-comparison
// pin: at the quick budget on a 4 x small-core 2x2-grid chip, the whole
// comparison — baseline target, every challenger's trajectory — must be
// bit-identical at any parallelism, and CMA-ES must reach the gradient-descent
// baseline's best droop with strictly fewer proposed evaluations than the
// baseline itself needed.
func TestRunTunerCmpParallelMatchesSerial(t *testing.T) {
	challengers := []string{"cmaes", "halving-cmaes"}
	run := func(parallel int) TunerCmpResult {
		t.Helper()
		b := QuickBudget()
		b.Parallel = parallel
		res, err := RunTunerCmp(context.Background(), "small", 4, 2, 2, challengers, b)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	par := run(8)
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("parallel comparison differs from serial:\nserial:   %+v\nparallel: %+v", serial, par)
	}

	if serial.Core != platform.SmallCore || serial.Cores != 4 || serial.Kind != stress.SpatialNoiseVirus {
		t.Errorf("comparison identifies as %d x %s stressing %s", serial.Cores, serial.Core, serial.Kind)
	}
	if serial.Budget <= 0 || serial.Target <= 0 {
		t.Fatalf("budget %d / target %.2f should both be positive", serial.Budget, serial.Target)
	}
	if serial.BaselineEvals <= 0 || serial.BaselineEvals > serial.Baseline.Evaluations {
		t.Errorf("baseline needed %d evaluations to reach its best, spent %d total",
			serial.BaselineEvals, serial.Baseline.Evaluations)
	}
	if serial.Baseline.Evaluations > serial.Budget {
		t.Errorf("baseline proposed %d evaluations, budget is %d", serial.Baseline.Evaluations, serial.Budget)
	}
	if len(serial.Entries) != len(challengers) {
		t.Fatalf("entries = %d, want %d", len(serial.Entries), len(challengers))
	}

	// The headline result: CMA-ES matches the baseline's stress level with
	// strictly fewer proposed evaluations.
	cmaes := serial.Entries[0]
	if cmaes.Tuner != "cmaes" {
		t.Fatalf("first entry is %q, want cmaes", cmaes.Tuner)
	}
	if !cmaes.ReachedTarget {
		t.Fatalf("cmaes best %.2f never reached the baseline target %.2f", cmaes.BestValue, serial.Target)
	}
	if cmaes.EvalsToTarget <= 0 || cmaes.EvalsToTarget >= serial.BaselineEvals {
		t.Errorf("cmaes reached the target in %d evaluations, want strictly fewer than the baseline's %d",
			cmaes.EvalsToTarget, serial.BaselineEvals)
	}
	halving := serial.Entries[1]
	if halving.Tuner != "halving-cmaes" || !halving.ReachedTarget {
		t.Errorf("halving-cmaes (entry %q) should reach the target at this pin", halving.Tuner)
	}
	for _, e := range serial.Entries {
		if e.Evaluations > serial.Budget {
			t.Errorf("%s proposed %d evaluations, budget is %d", e.Tuner, e.Evaluations, serial.Budget)
		}
		if e.Simulations > e.Evaluations {
			t.Errorf("%s simulated %d configurations but proposed only %d", e.Tuner, e.Simulations, e.Evaluations)
		}
	}

	if got, want := len(serial.Progressions), 1+len(challengers); got != want {
		t.Errorf("progressions = %d series, want %d (baseline + challengers)", got, want)
	}
	out := serial.Render()
	for _, want := range []string{"Tuner comparison", "gd", "cmaes", "to target"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered comparison missing %q:\n%s", want, out)
		}
	}
}

func TestRunTunerCmpValidation(t *testing.T) {
	b := QuickBudget()
	if _, err := RunTunerCmp(context.Background(), "small", 1, 1, 1, nil, b); err == nil {
		t.Error("single-core comparison should be rejected")
	}
	if _, err := RunTunerCmp(context.Background(), "nope", 4, 2, 2, nil, b); err == nil {
		t.Error("unknown core should be rejected")
	}
	if _, err := RunTunerCmp(context.Background(), "small", 4, 2, 2, []string{"bogus"}, b); err == nil {
		t.Error("unknown challenger tuner should be rejected")
	}
}
