package stress

import (
	"context"
	"math"
	"testing"

	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/microprobe"
	"micrograd/internal/platform"
	"micrograd/internal/program"
	"micrograd/internal/tuner"
)

func testOptions(t *testing.T) Options {
	t.Helper()
	plat, err := platform.NewSimPlatform(platform.Large())
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Platform:    plat,
		EvalOptions: platform.EvalOptions{DynamicInstructions: 6000, Seed: 1},
		LoopSize:    200,
		Seed:        5,
		MaxEpochs:   12,
	}
}

// baselineIPC measures the IPC of a mid-range configuration for comparison.
func baselineIPC(t *testing.T, opts Options) float64 {
	t.Helper()
	cfg := knobs.InstructionOnlySpace().MidConfig()
	p, err := microprobe.NewSynthesizer(microprobe.Options{LoopSize: opts.LoopSize, Seed: 1}).Synthesize("baseline", cfg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := opts.Platform.EvaluateRequest(platform.EvalRequest{Programs: []*program.Program{p}, Options: opts.EvalOptions})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Metrics[metrics.IPC]
}

func TestPerfVirusFindsLowIPC(t *testing.T) {
	opts := testOptions(t)
	rep, err := Run(context.Background(), PerfVirus, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metric != metrics.IPC || rep.Maximize {
		t.Error("perf virus should minimize IPC")
	}
	if rep.BestValue <= 0 {
		t.Fatalf("best IPC %v", rep.BestValue)
	}
	base := baselineIPC(t, opts)
	if rep.BestValue >= base {
		t.Errorf("perf virus IPC %.3f not below the mid-configuration baseline %.3f", rep.BestValue, base)
	}
	// Progression must be non-increasing (best-so-far of a minimization).
	for i := 1; i < len(rep.Progression); i++ {
		if rep.Progression[i].BestValue > rep.Progression[i-1].BestValue+1e-12 {
			t.Errorf("progression increased at epoch %d", i+1)
		}
	}
	if rep.Program == nil || rep.Program.Validate() != nil {
		t.Error("stress program missing or invalid")
	}
	if rep.Program.Meta["use_case"] != "stress-testing" {
		t.Error("missing metadata on stress kernel")
	}
	mixSum := 0.0
	for _, f := range rep.InstrMix {
		mixSum += f
	}
	if mixSum < 0.95 || mixSum > 1.01 {
		t.Errorf("instruction mix sums to %v", mixSum)
	}
	if rep.Epochs == 0 || rep.Evaluations == 0 {
		t.Error("missing accounting")
	}
}

func TestPowerVirusMaximizesPower(t *testing.T) {
	opts := testOptions(t)
	rep, err := Run(context.Background(), PowerVirus, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metric != metrics.DynamicPowerW || !rep.Maximize {
		t.Error("power virus should maximize dynamic power")
	}
	if rep.BestValue <= 0 || math.IsInf(rep.BestValue, 0) {
		t.Fatalf("best power %v", rep.BestValue)
	}
	if rep.BestValue < 0.5 || rep.BestValue > 4 {
		t.Errorf("power virus %.2f W outside the plausible large-core range", rep.BestValue)
	}
	for i := 1; i < len(rep.Progression); i++ {
		if rep.Progression[i].BestValue < rep.Progression[i-1].BestValue-1e-12 {
			t.Errorf("power progression decreased at epoch %d", i+1)
		}
	}
	if rep.RegDist < 1 {
		t.Errorf("register dependency distance %d not reported", rep.RegDist)
	}
	if _, ok := rep.BestMetrics[metrics.DynamicPowerW]; !ok {
		t.Error("power metric missing from best metrics")
	}
}

func TestPowerVirusPrefersExpensiveMix(t *testing.T) {
	// The paper's Table III: the power virus is dominated by memory and FP
	// operations, with integer operations a small minority.
	opts := testOptions(t)
	opts.MaxEpochs = 20
	rep, err := Run(context.Background(), PowerVirus, opts)
	if err != nil {
		t.Fatal(err)
	}
	intFrac := rep.InstrMix[0] // isa.ClassInteger == 0
	memFrac := rep.BestMetrics[metrics.FracLoad] + rep.BestMetrics[metrics.FracStore]
	fpFrac := rep.BestMetrics[metrics.FracFloat]
	if memFrac+fpFrac <= intFrac {
		t.Errorf("power virus should favour memory+FP (%.2f) over integer (%.2f)", memFrac+fpFrac, intFrac)
	}
}

func TestCustomMetricAndDirection(t *testing.T) {
	opts := testOptions(t)
	opts.MaxEpochs = 5
	opts.Metric = metrics.BranchMispredictRate
	opts.Maximize = true
	opts.Space = knobs.DefaultSpace()
	rep, err := Run(context.Background(), Kind("mispredict-stress"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metric != metrics.BranchMispredictRate || !rep.Maximize {
		t.Error("custom goal not honoured")
	}
	if rep.BestValue <= 0 {
		t.Error("mispredict stress should find a positive misprediction rate")
	}
}

func TestUnknownKindWithoutMetricRejected(t *testing.T) {
	opts := testOptions(t)
	if _, err := Run(context.Background(), Kind("bogus"), opts); err == nil {
		t.Error("unknown kind without explicit metric should be rejected")
	}
}

func TestMissingPlatformRejected(t *testing.T) {
	if _, err := Run(context.Background(), PerfVirus, Options{}); err == nil {
		t.Error("missing platform should be rejected")
	}
}

func TestStressWithGATuner(t *testing.T) {
	opts := testOptions(t)
	opts.MaxEpochs = 3
	opts.Tuner = tuner.NewGeneticAlgorithm(tuner.GAParams{PopulationSize: 8})
	rep, err := Run(context.Background(), PerfVirus, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TunerResult.Tuner != "genetic-algorithm" {
		t.Error("GA tuner not used")
	}
	// Duplicate individuals are memoized, so the platform count is bounded
	// by (and usually close to) the tuner's requested evaluations.
	if rep.TunerResult.TotalEvaluations != 24 {
		t.Errorf("GA tuner evaluations = %d, want 24", rep.TunerResult.TotalEvaluations)
	}
	if rep.Evaluations > 24 || rep.Evaluations == 0 {
		t.Errorf("platform evaluations = %d, want in (0,24]", rep.Evaluations)
	}
}

func TestDefaultSpacesPerKind(t *testing.T) {
	perf := Options{}.normalized(PerfVirus)
	if perf.Space.Len() != knobs.InstructionOnlySpace().Len() {
		t.Error("perf virus should default to the instruction-only space")
	}
	power := Options{}.normalized(PowerVirus)
	if power.Space.Len() != knobs.StressSpace().Len() {
		t.Error("power virus should default to the stress space (instructions + REG_DIST)")
	}
}

// TestVoltageNoiseVirusUnderPowerCap runs the README's power-capped
// voltage-noise search (maximize worst-case droop subject to a dynamic power
// cap) and checks the report: the cap is echoed, the budget holds, and the
// winner is feasible and droops.
func TestVoltageNoiseVirusUnderPowerCap(t *testing.T) {
	opts := testOptions(t)
	opts.PowerCapW = 50 // generous: binds nothing, exercises the whole path
	opts.MaxEvaluations = 150
	rep, err := Run(context.Background(), VoltageNoiseVirus, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PowerCapW != 50 {
		t.Errorf("report echoes cap %v, want 50", rep.PowerCapW)
	}
	if rep.Evaluations > 150 {
		t.Errorf("spent %d evaluations, budget is 150", rep.Evaluations)
	}
	if p := rep.BestMetrics[metrics.DynamicPowerW]; p > 50 {
		t.Errorf("winner infeasible: %.2f W over the cap", p)
	}
	if rep.Config.IsZero() || rep.BestValue <= 0 {
		t.Errorf("winner lacks a config or a positive droop (%v)", rep.BestValue)
	}
}

// TestPowerCapBindsOnPowerVirus caps the power virus below what the
// unconstrained search reaches: the capped run's winner must respect the cap
// while the search still makes progress under it.
func TestPowerCapBindsOnPowerVirus(t *testing.T) {
	free, err := Run(context.Background(), PowerVirus, testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	cap := 0.9 * free.BestValue
	opts := testOptions(t)
	opts.PowerCapW = cap
	capped, err := Run(context.Background(), PowerVirus, opts)
	if err != nil {
		t.Fatal(err)
	}
	if capped.PowerCapW != cap {
		t.Errorf("report echoes cap %v, want %v", capped.PowerCapW, cap)
	}
	if capped.BestValue > cap {
		t.Errorf("capped power virus reached %.3f W, cap is %.3f W", capped.BestValue, cap)
	}
	if capped.BestValue <= 0 {
		t.Errorf("capped run found no feasible kernel (best %.3f W)", capped.BestValue)
	}
}
