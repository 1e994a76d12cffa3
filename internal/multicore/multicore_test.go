package multicore

import (
	"testing"

	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/microprobe"
	"micrograd/internal/platform"
	"micrograd/internal/powersim"
	"micrograd/internal/program"
)

func twoSmall(t *testing.T, parallel int) *CoRunPlatform {
	t.Helper()
	c, err := New(Homogeneous(platform.Small(), 2), parallel)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// chipMetrics serves one metrics-only chip request: progs holds one kernel
// per core, or a single kernel every core co-runs.
func chipMetrics(c *CoRunPlatform, progs []*program.Program, opts platform.EvalOptions) (metrics.Vector, error) {
	resp, err := c.EvaluateRequest(platform.EvalRequest{Programs: progs, Options: opts})
	return resp.Metrics, err
}

// evalChip serves one chip request at DetailTrace with optional per-core
// clock overrides.
func evalChip(c *CoRunPlatform, progs []*program.Program, freqs []float64, opts platform.EvalOptions) (metrics.Vector, powersim.PowerTrace, error) {
	resp, err := c.EvaluateRequest(platform.EvalRequest{Programs: progs, FreqOverrides: freqs, Options: opts, Detail: platform.DetailTrace})
	return resp.Metrics, resp.Trace, err
}

// energyPJ is a trace's total dissipated energy, which aggregating core
// traces into a chip trace must conserve.
func energyPJ(t powersim.PowerTrace) float64 {
	total := 0.0
	for _, p := range t.Points {
		total += p.EnergyPJ
	}
	return total
}

// servedEvaluations is the number of chip evaluations c served: each one
// either simulates or shares every core once.
func servedEvaluations(c *CoRunPlatform) uint64 {
	return (c.CoreSimulations() + c.SharedCores()) / uint64(c.NumCores())
}

func testKernel(t *testing.T) *program.Program {
	t.Helper()
	syn := microprobe.NewSynthesizer(microprobe.Options{LoopSize: 200, Seed: 1})
	p, err := syn.Synthesize("corun-test", knobs.TransientStressSpace().MidConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCoRunSpecValidation(t *testing.T) {
	if err := (CoRunSpec{}).Validate(); err == nil {
		t.Error("empty spec should be rejected")
	}
	spec := Homogeneous(platform.Small(), 2)
	if err := spec.Validate(); err != nil {
		t.Errorf("homogeneous spec should validate: %v", err)
	}
	spec.OffsetCycles = []uint64{1}
	if err := spec.Validate(); err == nil {
		t.Error("offset/core count mismatch should be rejected")
	}
	// Mixed clock domains are legal (big.LITTLE / DVFS co-runs); only
	// non-positive clocks are rejected, via the per-core CPU validation.
	mixed := CoRunSpec{Cores: []platform.CoreSpec{platform.Small(), platform.Large()},
		Supply: platform.Small().Supply, Thermal: platform.Small().Thermal}
	mixed.Cores[1].CPU.FrequencyGHz = 3
	if err := mixed.Validate(); err != nil {
		t.Errorf("mixed clock domains should validate: %v", err)
	}
	mixed.Cores[1].CPU.FrequencyGHz = 0
	if err := mixed.Validate(); err == nil {
		t.Error("non-positive clock should be rejected")
	}
	noWin := Homogeneous(platform.Small(), 2)
	noWin.Cores[0].CPU.WindowCycles = 0
	if err := noWin.Validate(); err == nil {
		t.Error("core without activity windows should be rejected")
	}
}

func TestCoRunEvaluateProducesChipMetrics(t *testing.T) {
	c := twoSmall(t, 1)
	v, err := chipMetrics(c, []*program.Program{testKernel(t)}, platform.EvalOptions{DynamicInstructions: 6000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{metrics.ChipPowerW, metrics.ChipWorstDroopMV, metrics.ChipMaxDIDTWPerNS,
		metrics.ChipTempC, "core0_ipc", "core1_ipc", "core0_dynamic_power_w", "core1_worst_droop_mv"} {
		if _, ok := v[name]; !ok {
			t.Errorf("chip evaluation missing %s", name)
		}
	}
	if v[metrics.ChipMaxDIDTWPerNS] <= 0 {
		t.Errorf("chip dI/dt %v should be positive for a duty-cycled kernel", v[metrics.ChipMaxDIDTWPerNS])
	}
	if v[metrics.ChipWorstDroopMV] <= v["core0_worst_droop_mv"] {
		t.Errorf("chip droop %v should exceed a single co-runner's private droop %v",
			v[metrics.ChipWorstDroopMV], v["core0_worst_droop_mv"])
	}
	// Two identical co-runners draw twice one core's power at chip level.
	if chip, one := v[metrics.ChipPowerW], v["core0_dynamic_power_w"]; chip < 1.9*one || chip > 2.1*one {
		t.Errorf("chip power %v should be ~2x core power %v", chip, one)
	}
	if got := servedEvaluations(c); got != 1 {
		t.Errorf("evaluation count %d, want 1", got)
	}
}

// TestCoRunFidelityShortensChipTrace pins the multi-fidelity contract on the
// chip path: a reduced-fidelity request shrinks every core's simulated window
// (and with it the aggregated chip trace) while still producing the chip
// metrics the tuner's power cap constrains on.
func TestCoRunFidelityShortensChipTrace(t *testing.T) {
	p := testKernel(t)
	c := twoSmall(t, 1)
	eval := func(fidelity float64) platform.EvalResponse {
		t.Helper()
		resp, err := c.EvaluateRequest(platform.EvalRequest{
			Programs: []*program.Program{p},
			Options:  platform.EvalOptions{DynamicInstructions: 8000, Seed: 1, Fidelity: fidelity},
			Detail:   platform.DetailTrace,
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	full := eval(0)
	half := eval(0.5)
	if len(half.Trace.Points) == 0 || len(half.Trace.Points) >= len(full.Trace.Points) {
		t.Errorf("fidelity 0.5 chip trace has %d windows, want fewer than the full run's %d (and > 0)",
			len(half.Trace.Points), len(full.Trace.Points))
	}
	for _, v := range []metrics.Vector{full.Metrics, half.Metrics} {
		if v[metrics.ChipPowerW] <= 0 || v[metrics.ChipWorstDroopMV] <= 0 {
			t.Errorf("chip cap metrics missing at reduced fidelity: power %v, droop %v",
				v[metrics.ChipPowerW], v[metrics.ChipWorstDroopMV])
		}
	}
}

func TestCoRunParallelBitIdenticalToSerial(t *testing.T) {
	p := testKernel(t)
	opts := platform.EvalOptions{DynamicInstructions: 6000, Seed: 1}
	serial, err := chipMetrics(twoSmall(t, 1), []*program.Program{p}, opts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := chipMetrics(twoSmall(t, 4), []*program.Program{p}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(par) {
		t.Fatalf("metric sets differ: %d vs %d", len(serial), len(par))
	}
	for name, want := range serial {
		if got := par[name]; got != want {
			t.Errorf("metric %s: parallel %v != serial %v", name, got, want)
		}
	}
}

func TestEvaluateConfigRotatesPerCore(t *testing.T) {
	c := twoSmall(t, 1)
	space := knobs.CoRunStressSpace(2)
	cfg, err := space.ConfigFromValues(map[string]float64{
		"ADD": 5, "FMULD": 8, knobs.NameDutyCycle: 0.5, knobs.NameBurstLen: 64,
		knobs.PhaseOffsetName(0): 0, knobs.PhaseOffsetName(1): 96,
	})
	if err != nil {
		t.Fatal(err)
	}
	syn := microprobe.NewSynthesizer(microprobe.Options{LoopSize: 200, Seed: 1})
	progs, err := c.SynthesizeCoRun("corun-test", cfg, syn)
	if err != nil {
		t.Fatal(err)
	}
	if progs[0].Meta["phase_offset"] != "" {
		t.Errorf("core 0 at offset 0 should be unrotated, meta %q", progs[0].Meta["phase_offset"])
	}
	if progs[1].Meta["phase_offset"] != "96" {
		t.Errorf("core 1 should be rotated by 96, meta %q", progs[1].Meta["phase_offset"])
	}
	v, err := c.EvaluateConfig("corun-test", cfg, syn, platform.EvalOptions{DynamicInstructions: 6000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v[metrics.ChipWorstDroopMV] <= 0 {
		t.Errorf("chip droop %v should be positive", v[metrics.ChipWorstDroopMV])
	}
}

func TestCoRunRejectsKernelCountMismatch(t *testing.T) {
	c := twoSmall(t, 1)
	p := testKernel(t)
	if _, err := chipMetrics(c, []*program.Program{p, p, p}, platform.EvalOptions{DynamicInstructions: 1000}); err == nil {
		t.Error("kernel/core count mismatch should be rejected")
	}
}

func TestCoRunName(t *testing.T) {
	c := twoSmall(t, 1)
	if got, want := c.Name(), "corun-2x-small+small"; got != want {
		t.Errorf("name %q, want %q", got, want)
	}
	if c.NumCores() != 2 {
		t.Errorf("NumCores %d, want 2", c.NumCores())
	}
}

func TestStartSkewChangesChipTrace(t *testing.T) {
	// The same two kernels with and without a start skew must produce
	// different chip waveforms (the aligned case stacks bursts; the skewed
	// case spreads them) while conserving total energy.
	aligned := twoSmall(t, 1)
	skewSpec := Homogeneous(platform.Small(), 2)
	skewSpec.OffsetCycles = []uint64{0, 2048}
	skewed, err := New(skewSpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := testKernel(t)
	opts := platform.EvalOptions{DynamicInstructions: 6000, Seed: 1}
	progs := []*program.Program{p, p}
	_, ta, err := evalChip(aligned, progs, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, ts, err := evalChip(skewed, progs, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Points) <= len(ta.Points) {
		t.Errorf("skewed trace (%d windows) should outlast aligned (%d windows)",
			len(ts.Points), len(ta.Points))
	}
	var ea, es float64
	for _, pt := range ta.Points {
		ea += pt.EnergyPJ
	}
	for _, pt := range ts.Points {
		es += pt.EnergyPJ
	}
	if diff := es - ea; diff > 1e-6*ea || diff < -1e-6*ea {
		t.Errorf("skew changed total energy: aligned %v, skewed %v", ea, es)
	}
}

func TestHomogeneousBuildsNCores(t *testing.T) {
	for _, n := range []int{2, 4} {
		spec := Homogeneous(platform.Large(), n)
		if len(spec.Cores) != n {
			t.Errorf("Homogeneous(%d) built %d cores", n, len(spec.Cores))
		}
		if _, err := New(spec, n); err != nil {
			t.Errorf("building %d-core platform: %v", n, err)
		}
	}
}

// TestHeterogeneousFrequencyChipEnergyReconciles is the mixed-clock energy
// pin: a 2.0+1.2 GHz chip must aggregate on the nanosecond grid, and the
// chip trace's total energy must equal the sum of the cores' own trace
// energies to 1e-9 — time-domain summation conserves what the cores
// dissipated.
func TestHeterogeneousFrequencyChipEnergyReconciles(t *testing.T) {
	spec := Homogeneous(platform.Small(), 2)
	spec.Cores[1].CPU.FrequencyGHz = 1.2
	c, err := New(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := testKernel(t)
	opts := platform.EvalOptions{DynamicInstructions: 6000, Seed: 1}
	v, chip, err := evalChip(c, []*program.Program{p, p}, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !chip.TimeDomain() {
		t.Fatal("mixed-clock chip trace should be time-domain")
	}
	// Per-core reference energies: the same kernel on standalone platforms
	// with the same per-core clocks (window energy is clock-agnostic).
	var want float64
	for _, coreSpec := range spec.Cores {
		sim, err := platform.NewSimPlatform(coreSpec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := sim.EvaluateRequest(platform.EvalRequest{
			Programs: []*program.Program{p}, Options: opts, Detail: platform.DetailTrace,
		})
		if err != nil {
			t.Fatal(err)
		}
		want += energyPJ(resp.Trace)
	}
	got := energyPJ(chip)
	if diff := got - want; diff > 1e-9*want || diff < -1e-9*want {
		t.Errorf("chip trace energy %v pJ, want %v pJ (conservation to 1e-9)", got, want)
	}
	for _, name := range []string{metrics.ChipPowerW, metrics.ChipWorstDroopMV, metrics.ChipTempC} {
		if v[name] <= 0 {
			t.Errorf("chip metric %s = %v, want positive", name, v[name])
		}
	}
	if v["core0_freq_ghz"] != 2.0 || v["core1_freq_ghz"] != 1.2 {
		t.Errorf("per-core clocks reported as %v/%v, want 2/1.2", v["core0_freq_ghz"], v["core1_freq_ghz"])
	}
}

// TestEvaluateCoRunDetailedAtOverridesClocks pins the DVFS override path
// (EvalRequest.FreqOverrides):
// the same kernels on the same homogeneous platform, re-clocked per call.
func TestEvaluateCoRunDetailedAtOverridesClocks(t *testing.T) {
	c := twoSmall(t, 1)
	p := testKernel(t)
	progs := []*program.Program{p, p}
	opts := platform.EvalOptions{DynamicInstructions: 6000, Seed: 1}
	base, chipBase, err := evalChip(c, progs, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !chipBase.TimeDomain() {
		t.Error("homogeneous chip should aggregate on the nanosecond grid like any other")
	}
	het, chipHet, err := evalChip(c, progs, []float64{2.0, 1.2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !chipHet.TimeDomain() {
		t.Error("overridden mixed clocks should aggregate in the time domain")
	}
	// Throttling core 1 to 1.2 GHz stretches its trace in time and lowers
	// its average power; the chip average must drop with it.
	if het[metrics.ChipPowerW] >= base[metrics.ChipPowerW] {
		t.Errorf("throttled chip power %v should be below homogeneous %v",
			het[metrics.ChipPowerW], base[metrics.ChipPowerW])
	}
	if het["core1_freq_ghz"] != 1.2 || het["core0_freq_ghz"] != 2.0 {
		t.Errorf("override clocks reported as %v/%v", het["core0_freq_ghz"], het["core1_freq_ghz"])
	}
	// A uniform override re-times the grid through the new clock.
	boost, chipBoost, err := evalChip(c, progs, []float64{2.4, 2.4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !chipBoost.TimeDomain() {
		t.Error("uniformly overridden clocks should aggregate on the nanosecond grid")
	}
	if w, want := chipBoost.WindowNS, 64/2.4; w < want*(1-1e-12) || w > want*(1+1e-12) {
		t.Errorf("boosted chip grid window %v ns, want %v ns (64 cycles at 2.4 GHz)", w, want)
	}
	if boost[metrics.ChipPowerW] <= base[metrics.ChipPowerW] {
		t.Errorf("boosted chip power %v should exceed base %v", boost[metrics.ChipPowerW], base[metrics.ChipPowerW])
	}
	if _, _, err := evalChip(c, progs, []float64{2.0}, opts); err == nil {
		t.Error("override/core count mismatch should be rejected")
	}
	if _, _, err := evalChip(c, progs, []float64{2.0, -1}, opts); err == nil {
		t.Error("negative clock override should be rejected")
	}
}

// TestHomogeneousChipMatchesRetiredCycleGrid is the shim-retirement
// equivalence pin: the chip metrics below were recorded by the old
// cycle-grid aggregation path (powersim.SumTraces, deleted in the same PR
// that added this test) for deterministic homogeneous co-runs, and the
// single time-domain path must reproduce them to ≤1e-9. The supply and
// thermal integrators consume per-point durations, so this also pins that
// the nanosecond grid feeds them the same waveform the cycle grid did.
func TestHomogeneousChipMatchesRetiredCycleGrid(t *testing.T) {
	p := testKernel(t)
	opts := platform.EvalOptions{DynamicInstructions: 6000, Seed: 1}
	for _, tc := range []struct {
		name    string
		core    platform.CoreSpec
		offsets []uint64
		// Recorded outputs of the retired cycle-grid path for this fixture.
		powerW, droopMV, tempC float64
		points                 int
		energyPJ               float64
	}{
		{"aligned-small", platform.Small(), nil,
			0.44620854993578374, 48.225680781327604, 57.519472881333371, 511, 7295956},
		{"skewed-small", platform.Small(), []uint64{0, 2048},
			0.4199111366906475, 37.969880975622594, 56.936968547852267, 543, 7295956},
		{"aligned-large", platform.Large(), nil,
			1.1495336686042714, 212.36452807990224, 77.265073962839011, 479, 17600510},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := Homogeneous(tc.core, 2)
			spec.OffsetCycles = tc.offsets
			c, err := New(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			v, chip, err := evalChip(c, []*program.Program{p, p}, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !chip.TimeDomain() {
				t.Fatal("chip trace should be time-domain (single aggregation path)")
			}
			for _, m := range []struct {
				name      string
				got, want float64
			}{
				{metrics.ChipPowerW, v[metrics.ChipPowerW], tc.powerW},
				{metrics.ChipWorstDroopMV, v[metrics.ChipWorstDroopMV], tc.droopMV},
				{metrics.ChipTempC, v[metrics.ChipTempC], tc.tempC},
				{"trace energy (pJ)", energyPJ(chip), tc.energyPJ},
			} {
				if diff := m.got - m.want; diff > 1e-9*m.want || diff < -1e-9*m.want {
					t.Errorf("%s = %.17g, cycle-grid path recorded %.17g (want ≤1e-9 relative)",
						m.name, m.got, m.want)
				}
			}
			if len(chip.Points) != tc.points {
				t.Errorf("chip trace has %d windows, cycle-grid path had %d", len(chip.Points), tc.points)
			}
		})
	}
}

// TestAlignedChipBeatsSkewedOnChipDIDT pins the new chip-level dI/dt metric
// (the one heterogeneous chips used to silently lose): two phase-aligned
// co-runners stack their burst edges into one steep chip-level power step,
// so they must beat the same pair skewed by a third of the supply-resonance
// period on chip_max_didt_w_per_ns.
func TestAlignedChipBeatsSkewedOnChipDIDT(t *testing.T) {
	p := testKernel(t)
	opts := platform.EvalOptions{DynamicInstructions: 6000, Seed: 1}
	progs := []*program.Program{p, p}
	aligned, err := chipMetrics(twoSmall(t, 1), progs, opts)
	if err != nil {
		t.Fatal(err)
	}
	skewSpec := Homogeneous(platform.Small(), 2)
	skewSpec.OffsetCycles = []uint64{0, 2048}
	skewPlat, err := New(skewSpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := chipMetrics(skewPlat, progs, opts)
	if err != nil {
		t.Fatal(err)
	}
	da, ds := aligned[metrics.ChipMaxDIDTWPerNS], skewed[metrics.ChipMaxDIDTWPerNS]
	if da <= 0 || ds <= 0 {
		t.Fatalf("both chips should report a positive dI/dt, got aligned %v, skewed %v", da, ds)
	}
	if da <= ds {
		t.Errorf("phase-aligned chip dI/dt %v W/ns should beat the skewed chip's %v W/ns", da, ds)
	}
}

// TestEvaluationsCounterIsAtomic reads the core-simulation and core-sharing
// counters from other goroutines while the platform evaluates — they must
// be race-free even though the platform itself is single-owner (run under
// -race in CI).
func TestEvaluationsCounterIsAtomic(t *testing.T) {
	c := twoSmall(t, 2)
	p := testKernel(t)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				c.CoreSimulations()
				c.SharedCores()
			}
		}
	}()
	opts := platform.EvalOptions{DynamicInstructions: 3000, Seed: 1}
	for i := 0; i < 3; i++ {
		if _, err := chipMetrics(c, []*program.Program{p}, opts); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	if got := servedEvaluations(c); got != 3 {
		t.Errorf("evaluation count %d, want 3", got)
	}
}
