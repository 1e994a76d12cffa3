package experiments

import (
	"context"
	"reflect"
	"testing"
)

// determinismBudget is a minimal budget for the end-to-end determinism tests.
func determinismBudget(parallel int) Budget {
	return Budget{
		DynamicInstructions:   2000,
		CloneEpochs:           4,
		StressEpochs:          4,
		LoopSize:              120,
		Benchmarks:            []string{"hmmer", "mcf"},
		BruteForceEvaluations: 64,
		Seed:                  1,
		Parallel:              parallel,
	}
}

// TestParallelCloningMatchesSerial runs the Fig. 2 cloning experiment (GD
// over two benchmarks) serially and on the parallel engine and asserts the
// results are bit-identical: same accuracies, same losses, same evaluation
// counts.
func TestParallelCloningMatchesSerial(t *testing.T) {
	ctx := context.Background()
	serial, err := RunFig2(ctx, determinismBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunFig2(ctx, determinismBudget(8))
	if err != nil {
		t.Fatal(err)
	}
	if serial.MeanError != parallel.MeanError {
		t.Errorf("MeanError: serial %v, parallel %v", serial.MeanError, parallel.MeanError)
	}
	if !reflect.DeepEqual(serial.AccuracyRatios(), parallel.AccuracyRatios()) {
		t.Errorf("accuracy ratios differ:\nserial:   %v\nparallel: %v", serial.AccuracyRatios(), parallel.AccuracyRatios())
	}
	if !reflect.DeepEqual(serial.EpochsPerBenchmark(), parallel.EpochsPerBenchmark()) {
		t.Errorf("epoch counts differ: serial %v, parallel %v", serial.EpochsPerBenchmark(), parallel.EpochsPerBenchmark())
	}
	for name, srep := range serial.Reports {
		prep, ok := parallel.Reports[name]
		if !ok {
			t.Errorf("parallel run missing benchmark %s", name)
			continue
		}
		if srep.Evaluations != prep.Evaluations {
			t.Errorf("%s Evaluations: serial %d, parallel %d", name, srep.Evaluations, prep.Evaluations)
		}
		if srep.TunerResult.BestLoss != prep.TunerResult.BestLoss {
			t.Errorf("%s BestLoss: serial %v, parallel %v", name, srep.TunerResult.BestLoss, prep.TunerResult.BestLoss)
		}
		// The two runs build their own knob-space instances, so compare the
		// index vectors rather than Config.Equal (which requires a shared
		// space).
		if !reflect.DeepEqual(srep.Config.Indices(), prep.Config.Indices()) {
			t.Errorf("%s best config differs: serial %v, parallel %v", name, srep.Config, prep.Config)
		}
	}
}

// TestParallelStressMatchesSerial runs the Fig. 5 stress experiment (GD, GA
// and the brute-force reference) serially and on the parallel engine and
// asserts bit-identical progressions and best values.
func TestParallelStressMatchesSerial(t *testing.T) {
	ctx := context.Background()
	serial, err := RunFig5(ctx, determinismBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunFig5(ctx, determinismBudget(8))
	if err != nil {
		t.Fatal(err)
	}
	if serial.GD.BestValue != parallel.GD.BestValue {
		t.Errorf("GD best: serial %v, parallel %v", serial.GD.BestValue, parallel.GD.BestValue)
	}
	if serial.GA.BestValue != parallel.GA.BestValue {
		t.Errorf("GA best: serial %v, parallel %v", serial.GA.BestValue, parallel.GA.BestValue)
	}
	if serial.BruteForceValue != parallel.BruteForceValue {
		t.Errorf("brute force: serial %v, parallel %v", serial.BruteForceValue, parallel.BruteForceValue)
	}
	if serial.BruteForceEvaluations != parallel.BruteForceEvaluations {
		t.Errorf("brute force evaluations: serial %d, parallel %d", serial.BruteForceEvaluations, parallel.BruteForceEvaluations)
	}
	if !reflect.DeepEqual(serial.GD.Progression, parallel.GD.Progression) {
		t.Errorf("GD progressions differ:\nserial:   %+v\nparallel: %+v", serial.GD.Progression, parallel.GD.Progression)
	}
	if !reflect.DeepEqual(serial.GA.Progression, parallel.GA.Progression) {
		t.Errorf("GA progressions differ:\nserial:   %+v\nparallel: %+v", serial.GA.Progression, parallel.GA.Progression)
	}
	if !reflect.DeepEqual(serial.GD.Config.Indices(), parallel.GD.Config.Indices()) {
		t.Errorf("GD configs differ: serial %v, parallel %v", serial.GD.Config, parallel.GD.Config)
	}
}
