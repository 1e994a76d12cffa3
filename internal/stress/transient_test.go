package stress

import (
	"context"
	"testing"

	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/platform"
)

// smallOptions returns deterministic quick-budget options on the Small core.
func smallOptions(t *testing.T) Options {
	t.Helper()
	plat, err := platform.NewSimPlatform(platform.Small())
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Platform:    plat,
		EvalOptions: platform.EvalOptions{DynamicInstructions: 8000, Seed: 1},
		LoopSize:    250,
		Seed:        1,
		MaxEpochs:   10,
	}
}

func TestKindByName(t *testing.T) {
	for _, k := range Kinds() {
		got, err := KindByName(string(k))
		if err != nil || got != k {
			t.Errorf("KindByName(%q) = %v, %v", k, got, err)
		}
	}
	if _, err := KindByName("melt-the-vrm"); err == nil {
		t.Error("unknown kind should be rejected")
	}
}

func TestVoltageNoiseVirusGoalAndSpace(t *testing.T) {
	rep, err := Run(context.Background(), VoltageNoiseVirus, smallOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metric != metrics.WorstDroopMV || !rep.Maximize {
		t.Errorf("voltage-noise virus should maximize %s, got %s maximize=%v",
			metrics.WorstDroopMV, rep.Metric, rep.Maximize)
	}
	if rep.BestValue <= 0 {
		t.Fatalf("droop %v should be positive", rep.BestValue)
	}
	if _, ok := rep.Config.Space().IndexOf(knobs.NameDutyCycle); !ok {
		t.Error("voltage-noise virus should tune the duty-cycle knob")
	}
	if rep.DutyCycle <= 0 || rep.DutyCycle > 1 {
		t.Errorf("reported duty cycle %v outside (0,1]", rep.DutyCycle)
	}
	if _, ok := rep.BestMetrics[metrics.WorstDroopMV]; !ok {
		t.Error("best metrics should include the droop metric (CollectPower forced)")
	}
}

func TestThermalVirusGoalAndRange(t *testing.T) {
	rep, err := Run(context.Background(), ThermalVirus, smallOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metric != metrics.TempC || !rep.Maximize {
		t.Errorf("thermal virus should maximize %s", metrics.TempC)
	}
	// Hotspot temperature must exceed the ambient reference — the thermal
	// model cannot cool the core below it.
	if rep.BestValue <= 45 {
		t.Errorf("hotspot temperature %v °C should exceed the 45 °C ambient", rep.BestValue)
	}
	if rep.BestValue > 150 {
		t.Errorf("hotspot temperature %v °C is implausible for the Small core", rep.BestValue)
	}
}

// TestVoltageNoiseVirusBeatsPowerVirusDroop is the headline transient-stress
// property: tuned for droop (warm-started from the power virus's operating
// point, in the richer duty-cycle space), the voltage-noise virus must find
// strictly worse supply noise than the power-virus configuration causes —
// average power and worst-case droop are different objectives.
func TestVoltageNoiseVirusBeatsPowerVirusDroop(t *testing.T) {
	ctx := context.Background()
	power, err := Run(ctx, PowerVirus, smallOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	powerDroop, ok := power.BestMetrics[metrics.WorstDroopMV]
	if !ok {
		t.Fatal("power-virus metrics lack the droop metric")
	}

	// Embed the power-virus configuration into the transient space (duty 1 =
	// the same always-on behaviour) and let the droop search take off from it.
	vals := map[string]float64{knobs.NameDutyCycle: 1, knobs.NameBurstLen: 64}
	for _, name := range power.Config.Space().Names() {
		vals[name], _ = power.Config.ValueByName(name)
	}
	initial, err := knobs.TransientStressSpace().ConfigFromValues(vals)
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOptions(t)
	opts.Initial = initial
	noise, err := Run(ctx, VoltageNoiseVirus, opts)
	if err != nil {
		t.Fatal(err)
	}
	if noise.BestValue <= powerDroop {
		t.Errorf("voltage-noise virus droop %.2f mV should strictly exceed the power virus's %.2f mV",
			noise.BestValue, powerDroop)
	}
}

// TestTransientKindsParallelMatchesSerial extends the serial≡parallel
// determinism guarantee to the new stress kinds.
func TestTransientKindsParallelMatchesSerial(t *testing.T) {
	for _, kind := range []Kind{VoltageNoiseVirus, ThermalVirus} {
		t.Run(string(kind), func(t *testing.T) {
			serialOpts := smallOptions(t)
			serialOpts.MaxEpochs = 6
			serial, err := Run(context.Background(), kind, serialOpts)
			if err != nil {
				t.Fatal(err)
			}
			parOpts := smallOptions(t)
			parOpts.MaxEpochs = 6
			parOpts.Parallel = 4
			parOpts.NewPlatform = func() (platform.Platform, error) {
				return platform.NewSimPlatform(platform.Small())
			}
			par, err := Run(context.Background(), kind, parOpts)
			if err != nil {
				t.Fatal(err)
			}
			if serial.BestValue != par.BestValue {
				t.Errorf("parallel best %v differs from serial %v", par.BestValue, serial.BestValue)
			}
			// The runs build separate space instances, so compare the index
			// vectors rather than Config.Equal (which requires one space).
			if serial.Config.Key() != par.Config.Key() {
				t.Errorf("parallel config %s differs from serial %s", par.Config, serial.Config)
			}
		})
	}
}
