package powersim

import (
	"math"
	"math/rand"
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
	var s GridScratch
	if _, _, err := s.Solve(gs, defaultGridThermal(2, 2), []PowerTrace{tr}); err == nil || !strings.Contains(err.Error(), "node traces") {
		t.Errorf("1 trace for two 4-node grids should be rejected, got %v", err)
	}
	if _, _, err := s.Solve(defaultGridSupply(2, 1), gt, []PowerTrace{tr, tr}); err == nil || !strings.Contains(err.Error(), "differ") {
		t.Errorf("a 2x1 supply grid and a 1x2 thermal grid should be rejected, got %v", err)
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

// ringGrids are the grid shapes the solves in registers take: both grids
// of two nodes, and 2×2.
var ringGrids = [][2]int{{1, 2}, {2, 1}, {2, 2}}

// TestRingEmbedsOnlyRingGrids pins which grids take the solves in
// registers: ringGrids, and no single node, chain of three or four nodes
// or larger grid. FuzzGridSolvesInRegisters draws its shapes from
// ringGrids, so a shape ringEmbeds gains must join them.
func TestRingEmbedsOnlyRingGrids(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {1, 3}, {3, 1}, {1, 4}, {4, 1}, {2, 2}, {2, 3}, {3, 3}} {
		if got, want := ringEmbeds(dims[0], dims[1]), slices.Contains(ringGrids, dims); got != want {
			t.Errorf("ringEmbeds(%d, %d) = %v, want %v", dims[0], dims[1], got, want)
		}
	}
}

// requireSlicesMatch requires the supply and thermal solves in registers of
// a grid that ringEmbeds to equal the slice loops' bit for bit.
func requireSlicesMatch(t *testing.T, gs GridSupplyModel, gt GridThermalModel, nodes []PowerTrace) {
	t.Helper()
	var s, ref GridScratch
	dtS, err := s.waveform(gs.Nodes(), nodes)
	if err != nil {
		t.Fatalf("%dx%d step grid: %v", gs.Rows, gs.Cols, err)
	}
	refDtS, err := ref.waveform(gs.Nodes(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	if droops, want := s.droopsMV(gs, dtS, nodes, true), ref.droopsMV(gs, refDtS, nodes, false); !sameBits(droops, want) {
		t.Errorf("%dx%d grid: droops %v, slice loop %v", gs.Rows, gs.Cols, droops, want)
	}
	if temps, want := s.tempsC(gt, dtS, nodes, true), ref.tempsC(gt, refDtS, nodes, false); !sameBits(temps, want) {
		t.Errorf("%dx%d grid: temperatures %v, slice loop %v", gt.Rows, gt.Cols, temps, want)
	}
}

// FuzzGridSolvesInRegisters requires the supply and thermal solves in
// registers of every ringGrids shape to equal the slice loops bit for bit:
// coupling off or random, random pass counts, supply damping and
// thermal time constants, idle nodes, and node traces in either domain with
// zero-duration windows and NaN power. The thermal time constants reach
// down to tens of nanoseconds, so a solve can settle within a trace and the
// exact convergence check end it early. Wired into `make fuzz`.
func FuzzGridSolvesInRegisters(f *testing.F) {
	for shape := range ringGrids {
		f.Add(int64(shape+1), uint8(shape), uint8(6*shape+5))
		f.Add(int64(shape+11), uint8(shape), uint8(31*shape+191))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, passes uint8) {
		rng := rand.New(rand.NewSource(seed))
		dims := ringGrids[int(shape)%len(ringGrids)]
		gs, gt := defaultGridSupply(dims[0], dims[1]), defaultGridThermal(dims[0], dims[1])
		gs.Node.Passes = int(passes%6) + 1
		gt.Node.Passes = int(passes/6%6) + 1
		if rng.Intn(2) == 0 {
			gs.Node.ResistanceOhm = 0.02 + 0.3*rng.Float64()
		}
		if rng.Intn(2) == 0 {
			// τ = Rth·Cth from 28 ns to 2.8 µs, with a step cap of up to τ
			// so windows take several steps and stay stable uncoupled.
			gt.Node.CthJPerC = 1e-9 * math.Pow(10, 2*rng.Float64())
			gt.Node.MaxStepS = gt.Node.RthCPerW * gt.Node.CthJPerC * (0.01 + 0.99*rng.Float64())
		}
		switch rng.Intn(3) {
		case 0:
			gs.CouplingS, gt.LateralWPerC = 0, 0
		case 1:
			gs.CouplingS, gt.LateralWPerC = 20*rng.Float64(), rng.Float64()
		}
		nodes := make([]PowerTrace, gs.Nodes())
		for k := range nodes {
			if rng.Intn(5) != 0 { // else an idle node
				nodes[k] = randomDroopTrace(rng)
			}
		}
		requireSlicesMatch(t, gs, gt, nodes)
	})
}
