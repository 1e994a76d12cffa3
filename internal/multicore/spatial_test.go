package multicore

import (
	"strings"
	"testing"

	"micrograd/internal/metrics"
	"micrograd/internal/platform"
	"micrograd/internal/program"
)

func TestSpatialSpecValidation(t *testing.T) {
	spec := Homogeneous(platform.Small(), 4)
	grid := spec.WithGrid(2, 2, nil)
	if err := grid.Validate(); err != nil {
		t.Errorf("2x2 grid spec should validate: %v", err)
	}
	if !grid.Spatial() || spec.Spatial() {
		t.Error("WithGrid should mark the copy (and only the copy) spatial")
	}

	partial := grid
	partial.GridThermal = nil
	if err := partial.Validate(); err == nil || !strings.Contains(err.Error(), "set together") {
		t.Errorf("partial spatial spec should be rejected, got %v", err)
	}
	partial = grid
	partial.Floorplan = nil
	if err := partial.Validate(); err == nil {
		t.Error("spatial spec without a floorplan should be rejected")
	}

	mismatch := grid
	fp := DefaultFloorplan(1, 2, 4)
	mismatch.Floorplan = &fp
	if err := mismatch.Validate(); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Errorf("floorplan/grid dimension mismatch should be rejected, got %v", err)
	}

	badPlan := grid
	bp := DefaultFloorplan(2, 2, 4)
	bp.Nodes[3] = 7
	badPlan.Floorplan = &bp
	if err := badPlan.Validate(); err == nil {
		t.Error("floorplan placing a core off the grid should be rejected")
	}

	if _, err := New(spec.WithGrid(0, 2, nil), 1); err == nil {
		t.Error("0-row grid should be rejected at New")
	}
}

func TestDefaultGridIsNearSquare(t *testing.T) {
	for _, c := range []struct{ cores, rows, cols int }{
		{-1, 1, 1}, {0, 1, 1}, {1, 1, 1}, {2, 1, 2}, {3, 2, 2}, {4, 2, 2},
		{5, 2, 3}, {6, 2, 3}, {7, 3, 3}, {9, 3, 3}, {10, 3, 4}, {13, 4, 4},
	} {
		if rows, cols := DefaultGrid(c.cores); rows != c.rows || cols != c.cols {
			t.Errorf("DefaultGrid(%d) = %dx%d, want %dx%d", c.cores, rows, cols, c.rows, c.cols)
		}
	}
}

func TestFloorplanParseDefaultAndString(t *testing.T) {
	fp := DefaultFloorplan(2, 2, 6)
	if got, want := fp.String(), "0,0;0,1;1,0;1,1;0,0;0,1"; got != want {
		t.Errorf("default floorplan %q, want round-robin %q", got, want)
	}
	parsed, err := ParseFloorplan("0,0; 1,1 ;0,1", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := parsed.Nodes; len(got) != 3 || got[0] != 0 || got[1] != 3 || got[2] != 1 {
		t.Errorf("parsed nodes %v, want [0 3 1]", got)
	}
	if parsed.NodeCount() != 4 {
		t.Errorf("NodeCount=%d, want 4", parsed.NodeCount())
	}
	// String renders the parse syntax back.
	round, err := ParseFloorplan(parsed.String(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if round.String() != parsed.String() {
		t.Errorf("floorplan round-trip %q != %q", round.String(), parsed.String())
	}
	for _, bad := range []string{"0", "0,0;x,1", "0,y", "2,0", "0,2", "-1,0"} {
		if _, err := ParseFloorplan(bad, 2, 2); err == nil {
			t.Errorf("floorplan %q should be rejected", bad)
		}
	}
	if err := parsed.Validate(2); err == nil {
		t.Error("floorplan/core count mismatch should be rejected")
	}
}

// TestOneByOneGridChipMatchesLumpedGoldens is the chip-level half of the
// spatial equivalence anchor: a 1×1 grid evaluates through the spatial path
// (node aggregation, aligned warmup trim, grid solvers) yet must reproduce
// the recorded lumped chip metrics — the same goldens
// TestHomogeneousChipMatchesRetiredCycleGrid pins — to ≤1e-9, and its single
// node's metrics must equal the chip-worst values exactly.
func TestOneByOneGridChipMatchesLumpedGoldens(t *testing.T) {
	p := testKernel(t)
	opts := platform.EvalOptions{DynamicInstructions: 6000, Seed: 1}
	for _, tc := range []struct {
		name    string
		core    platform.CoreSpec
		offsets []uint64
		// The lumped chip metrics recorded for these fixtures (see
		// TestHomogeneousChipMatchesRetiredCycleGrid).
		powerW, droopMV, tempC float64
	}{
		{"aligned-small", platform.Small(), nil,
			0.44620854993578374, 48.225680781327604, 57.519472881333371},
		{"skewed-small", platform.Small(), []uint64{0, 2048},
			0.4199111366906475, 37.969880975622594, 56.936968547852267},
		{"aligned-large", platform.Large(), nil,
			1.1495336686042714, 212.36452807990224, 77.265073962839011},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := Homogeneous(tc.core, 2)
			spec.OffsetCycles = tc.offsets
			c, err := New(spec.WithGrid(1, 1, nil), 1)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := c.Name(), "corun-2x-"+string(tc.core.Kind)+"+"+string(tc.core.Kind)+"@1x1"; got != want {
				t.Errorf("spatial platform name %q, want %q", got, want)
			}
			v, err := chipMetrics(c, []*program.Program{p, p}, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []struct {
				name      string
				got, want float64
			}{
				{metrics.ChipPowerW, v[metrics.ChipPowerW], tc.powerW},
				{metrics.ChipWorstDroopMV, v[metrics.ChipWorstDroopMV], tc.droopMV},
				{metrics.ChipTempC, v[metrics.ChipTempC], tc.tempC},
			} {
				if diff := m.got - m.want; diff > 1e-9*m.want || diff < -1e-9*m.want {
					t.Errorf("%s = %.17g, lumped chip recorded %.17g (want ≤1e-9 relative)",
						m.name, m.got, m.want)
				}
			}
			if v[metrics.NodeDroopMV(0, 0)] != v[metrics.ChipWorstDroopMV] {
				t.Errorf("node (0,0) droop %v != chip-worst droop %v",
					v[metrics.NodeDroopMV(0, 0)], v[metrics.ChipWorstDroopMV])
			}
			if v[metrics.NodeTempC(0, 0)] != v[metrics.ChipTempC] {
				t.Errorf("node (0,0) temp %v != chip temp %v",
					v[metrics.NodeTempC(0, 0)], v[metrics.ChipTempC])
			}
		})
	}
}

// TestSpatialChipEmitsNodeMetricsAndRewardsConcentration evaluates a 4-core
// chip on a 2x2 grid twice: spread (one core per node) and concentrated (all
// cores on one node). Both must emit the full per-node metric map; piling
// every core onto one node must droop and heat the chip strictly harder.
func TestSpatialChipEmitsNodeMetricsAndRewardsConcentration(t *testing.T) {
	p := testKernel(t)
	opts := platform.EvalOptions{DynamicInstructions: 6000, Seed: 1}
	progs := []*program.Program{p, p, p, p}
	spec := Homogeneous(platform.Small(), 4)

	spreadPlat, err := New(spec.WithGrid(2, 2, nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	spread, err := chipMetrics(spreadPlat, progs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < 2; row++ {
		for col := 0; col < 2; col++ {
			if _, ok := spread[metrics.NodeDroopMV(row, col)]; !ok {
				t.Errorf("spatial evaluation missing %s", metrics.NodeDroopMV(row, col))
			}
			if _, ok := spread[metrics.NodeTempC(row, col)]; !ok {
				t.Errorf("spatial evaluation missing %s", metrics.NodeTempC(row, col))
			}
			if spread[metrics.NodeDroopMV(row, col)] > spread[metrics.ChipWorstDroopMV] {
				t.Errorf("node (%d,%d) droop exceeds the chip-worst value", row, col)
			}
		}
	}

	packed, err := ParseFloorplan("0,0;0,0;0,0;0,0", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	packedPlat, err := New(spec.WithGrid(2, 2, &packed), 1)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := chipMetrics(packedPlat, progs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if conc[metrics.ChipWorstDroopMV] <= spread[metrics.ChipWorstDroopMV] {
		t.Errorf("concentrated chip droop %v mV should beat the spread floorplan's %v mV",
			conc[metrics.ChipWorstDroopMV], spread[metrics.ChipWorstDroopMV])
	}
	if conc[metrics.ChipTempC] <= spread[metrics.ChipTempC] {
		t.Errorf("concentrated hotspot %v °C should beat the spread floorplan's %v °C",
			conc[metrics.ChipTempC], spread[metrics.ChipTempC])
	}
	// Core metrics and chip power are floorplan-independent.
	if conc[metrics.ChipPowerW] != spread[metrics.ChipPowerW] {
		t.Errorf("chip power changed with the floorplan: %v vs %v",
			conc[metrics.ChipPowerW], spread[metrics.ChipPowerW])
	}
}

func TestSpatialParallelBitIdenticalToSerial(t *testing.T) {
	p := testKernel(t)
	opts := platform.EvalOptions{DynamicInstructions: 6000, Seed: 1}
	progs := []*program.Program{p, p, p, p}
	spec := Homogeneous(platform.Small(), 4).WithGrid(2, 2, nil)
	serialPlat, err := New(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := chipMetrics(serialPlat, progs, opts)
	if err != nil {
		t.Fatal(err)
	}
	parPlat, err := New(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	par, err := chipMetrics(parPlat, progs, opts)
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

// TestFailedAggregationDoesNotCountEvaluation is the regression pin for the
// evaluation counters: they used to advance before the trace aggregation
// could fail, so failed chip evaluations inflated the count. The counters
// must move only for served responses.
func TestFailedAggregationDoesNotCountEvaluation(t *testing.T) {
	c := twoSmall(t, 1)
	p := testKernel(t)
	opts := platform.EvalOptions{DynamicInstructions: 3000, Seed: 1}
	// Corrupt the spec after construction (Validate would reject this): a
	// zero window makes the chip aggregation grid length 0, which
	// SumTracesTime rejects after the per-core simulations succeeded.
	c.spec.Cores[0].CPU.WindowCycles = 0
	c.spec.Cores[1].CPU.WindowCycles = 0
	if _, err := chipMetrics(c, []*program.Program{p}, opts); err == nil {
		t.Fatal("zero-window chip aggregation should fail")
	}
	if sims, shared := c.CoreSimulations(), c.SharedCores(); sims != 0 || shared != 0 {
		t.Errorf("failed evaluation advanced the counters to %d simulations, %d shared cores; want 0, 0", sims, shared)
	}
	c.spec.Cores[0].CPU.WindowCycles = 64
	c.spec.Cores[1].CPU.WindowCycles = 64
	if _, err := chipMetrics(c, []*program.Program{p}, opts); err != nil {
		t.Fatal(err)
	}
	if got := servedEvaluations(c); got != 1 {
		t.Errorf("served evaluation count %d, want 1", got)
	}
}
