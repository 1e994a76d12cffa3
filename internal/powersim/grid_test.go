package powersim

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// defaultGridSupply is a rows×cols grid of the default lumped supply model
// with the default lateral coupling.
func defaultGridSupply(rows, cols int) GridSupplyModel {
	return GridSupplyModel{Rows: rows, Cols: cols, Node: DefaultSupplyModel(), CouplingS: DefaultGridCouplingS}
}

// defaultGridThermal is a rows×cols grid of the default lumped thermal model
// with the default lateral conductance.
func defaultGridThermal(rows, cols int) GridThermalModel {
	return GridThermalModel{Rows: rows, Cols: cols, Node: DefaultThermalModel(), LateralWPerC: DefaultGridLateralWPerC}
}

// timeTrace builds a synthetic time-domain trace of constant power with
// millisecond-scale windows — long enough for the thermal integration to
// actually move temperature, unlike nanosecond core traces.
func timeTrace(n int, powerW, windowNS float64) PowerTrace {
	t := PowerTrace{WindowNS: windowNS}
	for i := 0; i < n; i++ {
		t.Points = append(t.Points, TracePoint{
			DurationNS: windowNS,
			EnergyPJ:   powerW * windowNS * 1000, // E(pJ) = P(W) · d(ns) · 1000
			PowerW:     powerW,
		})
	}
	return t
}

// scaledTrace returns tr with every point's power and energy multiplied by f —
// the trace of f identical co-located cores.
func scaledTrace(tr PowerTrace, f float64) PowerTrace {
	out := tr
	out.Points = append([]TracePoint(nil), tr.Points...)
	for i := range out.Points {
		out.Points[i].PowerW *= f
		out.Points[i].EnergyPJ *= f
	}
	return out
}

func TestGridModelsValidate(t *testing.T) {
	if err := (GridSupplyModel{Rows: 0, Cols: 2, Node: DefaultSupplyModel()}).Validate(); err == nil {
		t.Error("0-row supply grid should be rejected")
	}
	if err := (GridThermalModel{Rows: 2, Cols: 0, Node: DefaultThermalModel()}).Validate(); err == nil {
		t.Error("0-col thermal grid should be rejected")
	}
	gs := defaultGridSupply(2, 2)
	if err := gs.Validate(); err != nil {
		t.Errorf("default supply grid should validate: %v", err)
	}
	gs.CouplingS = -1
	if err := gs.Validate(); err == nil {
		t.Error("negative supply coupling should be rejected")
	}
	gs.CouplingS = math.NaN()
	if err := gs.Validate(); err == nil {
		t.Error("NaN supply coupling should be rejected")
	}
	gs = defaultGridSupply(2, 2)
	gs.Node.VddV = 0
	if err := gs.Validate(); err == nil {
		t.Error("bad per-node supply model should be rejected")
	}
	gt := defaultGridThermal(2, 2)
	if err := gt.Validate(); err != nil {
		t.Errorf("default thermal grid should validate: %v", err)
	}
	gt.LateralWPerC = math.Inf(1)
	if err := gt.Validate(); err == nil {
		t.Error("infinite thermal coupling should be rejected")
	}
	gt = defaultGridThermal(2, 2)
	gt.Node.CthJPerC = 0
	if err := gt.Validate(); err == nil {
		t.Error("bad per-node thermal model should be rejected")
	}
}

func TestGridRejectsNodeTraceCountMismatch(t *testing.T) {
	tr := squareTrace(8, 1, 0.2, 1.0)
	gs := defaultGridSupply(2, 2)
	if _, err := gs.NodeDroopsMV([]PowerTrace{tr}); err == nil || !strings.Contains(err.Error(), "node traces") {
		t.Errorf("1 trace for a 4-node supply grid should be rejected, got %v", err)
	}
	gt := defaultGridThermal(1, 2)
	if _, err := gt.NodeTempsC([]PowerTrace{tr, tr, tr}); err == nil || !strings.Contains(err.Error(), "node traces") {
		t.Errorf("3 traces for a 2-node thermal grid should be rejected, got %v", err)
	}
}

// TestOneByOneGridMatchesLumpedSolvers is the unit-level half of the spatial
// equivalence anchor: a 1×1 grid must reproduce the lumped WorstDroopMV and
// SteadyTempC to ≤1e-9 for every trace shape the chip path produces —
// cycle-domain, time-domain (the SumTracesTime output), and empty.
func TestOneByOneGridMatchesLumpedSolvers(t *testing.T) {
	timeSum, err := SumTracesTime(32, nil, squareTrace(16, 2, 0.2, 1.5), flatTrace(16, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		trace PowerTrace
	}{
		{"flat-cycle", flatTrace(12, 0.8)},
		{"square-cycle", squareTrace(16, 2, 0.2, 1.5)},
		{"time-domain-sum", timeSum},
		{"empty", PowerTrace{WindowCycles: 64, FrequencyGHz: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gs := defaultGridSupply(1, 1)
			droops, err := gs.NodeDroopsMV([]PowerTrace{tc.trace})
			if err != nil {
				t.Fatal(err)
			}
			if want := gs.Node.WorstDroopMV(tc.trace); !within(droops[0], want, 1e-9) {
				t.Errorf("1x1 grid droop %.17g mV, lumped model %.17g mV", droops[0], want)
			}
			gt := defaultGridThermal(1, 1)
			temps, err := gt.NodeTempsC([]PowerTrace{tc.trace})
			if err != nil {
				t.Fatal(err)
			}
			if want := gt.Node.SteadyTempC(tc.trace); !within(temps[0], want, 1e-9) {
				t.Errorf("1x1 grid temp %.17g °C, lumped model %.17g °C", temps[0], want)
			}
		})
	}
}

// within reports |got-want| ≤ tol·max(1, |want|).
func within(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

// TestDecoupledGridMatchesLumpedPerNode pins that zero coupling degenerates a
// multi-node grid into independent lumped models — the limit in which the
// spatial solvers must agree with the existing chip analyses node by node.
func TestDecoupledGridMatchesLumpedPerNode(t *testing.T) {
	a := squareTrace(16, 2, 0.2, 1.5)
	b := flatTrace(16, 0.6)
	gs := defaultGridSupply(1, 2)
	gs.CouplingS = 0
	droops, err := gs.NodeDroopsMV([]PowerTrace{a, b})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range []PowerTrace{a, b} {
		if want := gs.Node.WorstDroopMV(tr); !within(droops[i], want, 1e-9) {
			t.Errorf("decoupled node %d droop %.17g mV, lumped %.17g mV", i, droops[i], want)
		}
	}
	gt := defaultGridThermal(1, 2)
	gt.LateralWPerC = 0
	temps, err := gt.NodeTempsC([]PowerTrace{a, b})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range []PowerTrace{a, b} {
		if want := gt.Node.SteadyTempC(tr); !within(temps[i], want, 1e-9) {
			t.Errorf("decoupled node %d temp %.17g °C, lumped %.17g °C", i, temps[i], want)
		}
	}
}

// TestGridCouplingSpreadsDroop checks the physics of the lateral supply
// exchange: a hammered node's neighbour sees a real (nonzero) droop through
// the rail coupling, and the coupling cushions the hammered node relative to
// standing alone.
func TestGridCouplingSpreadsDroop(t *testing.T) {
	hot := squareTrace(32, 2, 0.1, 2.0) // resonant-ish burst train
	idle := PowerTrace{}
	gs := defaultGridSupply(1, 2)
	coupled, err := gs.NodeDroopsMV([]PowerTrace{hot, idle})
	if err != nil {
		t.Fatal(err)
	}
	if coupled[1] <= 0 {
		t.Errorf("idle neighbour droop %v mV should be positive through the rail coupling", coupled[1])
	}
	if coupled[0] <= coupled[1] {
		t.Errorf("hammered node droop %v mV should exceed its idle neighbour's %v mV", coupled[0], coupled[1])
	}
	alone := gs.Node.WorstDroopMV(hot)
	if coupled[0] >= alone {
		t.Errorf("coupled hammered-node droop %v mV should sit below the uncoupled lumped droop %v mV (the neighbour's rail cushions it)",
			coupled[0], alone)
	}
}

// TestGridThermalLateralHeatsIdleNeighbour checks the lateral conductance: a
// sustained hotspot warms its idle neighbour above ambient (but keeps the
// gradient), and with zero conductance the neighbour stays exactly ambient.
func TestGridThermalLateralHeatsIdleNeighbour(t *testing.T) {
	hot := timeTrace(64, 5.0, 1e6) // 5 W for 64 ms
	idle := PowerTrace{}
	gt := defaultGridThermal(1, 2)
	temps, err := gt.NodeTempsC([]PowerTrace{hot, idle})
	if err != nil {
		t.Fatal(err)
	}
	ambient := gt.Node.AmbientC
	if temps[1] <= ambient {
		t.Errorf("idle neighbour %v °C should rise above ambient %v °C via lateral conduction", temps[1], ambient)
	}
	if temps[0] <= temps[1] {
		t.Errorf("hotspot %v °C should stay hotter than its neighbour %v °C", temps[0], temps[1])
	}
	gt.LateralWPerC = 0
	temps, err = gt.NodeTempsC([]PowerTrace{hot, idle})
	if err != nil {
		t.Fatal(err)
	}
	if temps[1] != ambient {
		t.Errorf("decoupled idle neighbour %v °C should stay exactly ambient %v °C", temps[1], ambient)
	}
}

// TestGridConcentrationBeatsSpreading is the behaviour the spatial viruses
// exploit: the same total activity concentrated on one node droops and heats
// the chip harder than the same activity spread across the die.
func TestGridConcentrationBeatsSpreading(t *testing.T) {
	burst := squareTrace(32, 2, 0.1, 1.2)
	empty := PowerTrace{}
	gs := defaultGridSupply(2, 2)
	concentrated, err := gs.NodeDroopsMV([]PowerTrace{scaledTrace(burst, 2), empty, empty, empty})
	if err != nil {
		t.Fatal(err)
	}
	spread, err := gs.NodeDroopsMV([]PowerTrace{burst, empty, empty, burst})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Max(concentrated) <= slices.Max(spread) {
		t.Errorf("concentrated droop %v mV should beat the spread chip's %v mV", slices.Max(concentrated), slices.Max(spread))
	}
	heat := timeTrace(64, 4.0, 1e6)
	gt := defaultGridThermal(2, 2)
	hotspot, err := gt.NodeTempsC([]PowerTrace{scaledTrace(heat, 2), empty, empty, empty})
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := gt.NodeTempsC([]PowerTrace{heat, empty, empty, heat})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Max(hotspot) <= slices.Max(uniform) {
		t.Errorf("concentrated hotspot %v °C should beat the spread chip's %v °C", slices.Max(hotspot), slices.Max(uniform))
	}
}
