// Spatial generalizations of the lumped transient models: a 2D grid of
// supply nodes (per-node RLC with nearest-neighbour rail coupling) and a 2D
// grid of thermal nodes (per-node RC with lateral thermal conductance). Each
// grid node is parameterized by the *same* lumped model the single-node
// analyses use, and a 1×1 grid reproduces the lumped arithmetic exactly: the
// per-node load/average/step computations below are copies of the
// WorstDroopMV/SteadyTempC loops, and the coupling terms vanish when a node
// has no neighbours. That equivalence is the correctness anchor — it pins
// the spatial solvers to the golden values of the lumped models (see the
// grid oracle tests and FuzzGridLumpedOracle).
//
// Node traces are indexed row-major (node = row*Cols + col) and are the
// SumTracesTime aggregates of the cores a floorplan maps onto each node;
// nodes advance in lockstep on a common per-window step grid (the max
// window duration across nodes), so coupling is integrated consistently
// even when node traces end at different times.
package powersim

import (
	"fmt"
	"math"
	"slices"
)

// Default lateral coupling strengths of the built-in grid models. The
// supply coupling (rail-to-rail conductance between adjacent grid regions)
// is weak relative to each node's own 20 mΩ path — neighbouring regions
// cushion a hammered node without flattening the spatial contrast a
// phase-aligned co-run creates. The thermal conductance likewise spreads a
// hotspot into its neighbours over tens of milliseconds without turning the
// die isothermal.
const (
	// DefaultGridCouplingS is the node-to-node supply-rail conductance in
	// siemens (5 S ⇒ 0.2 Ω between adjacent nodes, 10× a node's series R).
	DefaultGridCouplingS = 5.0
	// DefaultGridLateralWPerC is the node-to-node thermal conductance in
	// W/°C (0.1 W/°C ⇒ 10 °C/W laterally, ~3× a node's 28 °C/W to ambient).
	DefaultGridLateralWPerC = 0.1
)

// GridSupplyModel is the spatial power-delivery network: a Rows×Cols grid
// of supply nodes, each a lumped second-order RLC (the Node model), with
// adjacent nodes' core-side rails tied by a CouplingS conductance. A node's
// droop is driven by its own local load plus the current exchanged with its
// neighbours — hammering one region droops it far deeper than spreading the
// same activity across the die, which is the behaviour the spatial noise
// virus exploits.
type GridSupplyModel struct {
	// Rows and Cols are the grid dimensions; nodes are indexed row-major.
	Rows, Cols int
	// Node is the per-node lumped supply model. A 1×1 grid reproduces its
	// WorstDroopMV exactly.
	Node SupplyModel
	// CouplingS is the lateral conductance between adjacent nodes'
	// core-side rails, in siemens. Zero decouples the nodes entirely.
	CouplingS float64
}

// DefaultGridSupplyModel returns a rows×cols grid of the default lumped
// supply model with the default lateral coupling.
func DefaultGridSupplyModel(rows, cols int) GridSupplyModel {
	return GridSupplyModel{Rows: rows, Cols: cols, Node: DefaultSupplyModel(), CouplingS: DefaultGridCouplingS}
}

// Nodes returns the node count of the grid.
func (g GridSupplyModel) Nodes() int { return g.Rows * g.Cols }

// Validate checks the grid dimensions, the per-node model and the coupling.
func (g GridSupplyModel) Validate() error {
	if g.Rows < 1 || g.Cols < 1 {
		return fmt.Errorf("powersim: grid supply model needs at least a 1x1 grid (got %dx%d)", g.Rows, g.Cols)
	}
	if err := g.Node.Validate(); err != nil {
		return err
	}
	if !(g.CouplingS >= 0) || math.IsInf(g.CouplingS, 0) {
		return fmt.Errorf("powersim: grid supply coupling must be finite and non-negative (got %g S)", g.CouplingS)
	}
	return nil
}

// NodeDroopsMV simulates the grid driven by the per-node traces (row-major,
// one per node; empty traces are idle nodes) and returns each node's
// worst-case droop in millivolts. On a 1×1 grid the result matches the
// lumped SupplyModel.WorstDroopMV of the same trace exactly.
func (g GridSupplyModel) NodeDroopsMV(nodes []PowerTrace) ([]float64, error) {
	return new(GridScratch).NodeDroopsMV(g, nodes)
}

// GridScratch keeps the buffers of repeated grid solves, for a caller that
// solves once per evaluation. The zero value is ready to use. It is not
// safe for concurrent use.
type GridScratch struct {
	// dtS is the common step grid, cells the supply solve's per-window
	// blocks, win its per-window step constants and state the solvers'
	// per-node vectors.
	dtS   []float64
	cells []float64
	win   []gridSupplyWindow
	state []float64
	// droops and temps are the returned results, kept apart so one
	// evaluation can hold both.
	droops, temps []float64
}

// NodeDroopsMV is g.NodeDroopsMV on s's buffers. The returned slice is
// valid until the next NodeDroopsMV call on s.
func (s *GridScratch) NodeDroopsMV(g GridSupplyModel, nodes []PowerTrace) ([]float64, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := g.Nodes()
	commonDtS, err := s.waveform(n, nodes)
	if err != nil {
		return nil, err
	}
	s.droops = zeroed(s.droops, n)
	droops := s.droops
	windows := len(commonDtS)
	if windows == 0 {
		return droops, nil
	}

	m := g.Node
	// cells holds, per window, a block of 3n values: every node's load
	// current, then the currents and the voltages the latest settling pass
	// entered the window with (the replay-stop record).
	stride := 3 * n
	s.cells = zeroed(s.cells, windows*stride)
	cells := s.cells
	block := func(w int) (load, iRec, vRec []float64) {
		b := cells[w*stride : (w+1)*stride]
		return b[:n], b[n : 2*n], b[2*n:]
	}

	// Per-node load current per window and warm-start average — the lumped
	// WorstDroopMV arithmetic, applied per node so a 1×1 grid is
	// bit-identical. Nodes whose trace carries no usable timing (empty, or
	// cycle-domain without a clock) draw nothing, matching the lumped
	// model's zero-droop answer for such traces.
	s.state = zeroed(s.state, 4*n)
	iv, vv, vMin, lat := s.state[:n], s.state[n:2*n], s.state[2*n:3*n], s.state[3*n:]
	for nn, tr := range nodes {
		avg := 0.0
		if tr.gridDriven() {
			var weight float64
			timeDomain := tr.TimeDomain()
			for i, p := range tr.Points {
				ld := p.PowerW / m.VddV
				cells[i*stride+nn] = ld
				if timeDomain {
					d := tr.PointDurationNS(i) * 1e-9
					avg += ld * d
					weight += d
				} else {
					avg += ld * float64(p.Cycles)
					weight += float64(p.Cycles)
				}
			}
			if weight == 0 {
				avg = 0
			} else {
				avg /= weight
			}
		}
		iv[nn] = avg
		vv[nn] = m.VddV - avg*m.ResistanceOhm
		vMin[nn] = vv[nn]
	}

	// The common step grid, subdivided per the node model's cap and — on
	// coupled multi-node grids only, so the 1×1 step count stays exactly
	// the lumped model's — tightened to keep the explicit lateral-exchange
	// term stable (h < C / (4·G), the worst 4-neighbour case).
	maxStep := m.MaxStepS
	coupled := n > 1 && g.CouplingS > 0
	if coupled {
		if b := m.CapacitanceF / (4 * g.CouplingS); b < maxStep {
			maxStep = b
		}
	}
	s.win = zeroed(s.win, windows)
	win := s.win
	for w, dt := range commonDtS {
		if dt == 0 {
			continue
		}
		k := int(dt/maxStep) + 1
		h := dt / float64(k)
		win[w] = gridSupplyWindow{
			steps:  int32(k),
			hOverL: h / m.InductanceH,
			hOverC: h / m.CapacitanceF,
			hCoupl: h / m.CapacitanceF * g.CouplingS,
		}
	}

settle:
	for pass := 0; pass < m.Passes; pass++ {
		for w := range win {
			load, iRec, vRec := block(w)
			// Replay stop, as in the lumped model: a window entered in the
			// previous pass's exact grid state replays that pass from here
			// on, so stopping is bit-identical to running all passes.
			if pass > 0 && sameStates(iv, iRec) && sameStates(vv, vRec) {
				break settle
			}
			copy(iRec, iv)
			copy(vRec, vv)
			hL, hC, hG := win[w].hOverL, win[w].hOverC, win[w].hCoupl
			for k := int32(0); k < win[w].steps; k++ {
				if coupled {
					// Semi-implicit per node, Jacobi across nodes: all
					// currents advance from the old voltages, the lateral
					// exchange is evaluated on the old voltages, then every
					// voltage advances.
					for nn := range iv {
						iv[nn] += hL * (m.VddV - vv[nn] - m.ResistanceOhm*iv[nn])
					}
					lateralSums(lat, vv, g.Rows, g.Cols)
					for nn := range vv {
						vv[nn] += hC*(iv[nn]-load[nn]) + hG*lat[nn]
						if vv[nn] < vMin[nn] {
							vMin[nn] = vv[nn]
						}
					}
				} else {
					// Decoupled nodes step exactly like the lumped model.
					for nn := range iv {
						iv[nn] += hL * (m.VddV - vv[nn] - m.ResistanceOhm*iv[nn])
						vv[nn] += hC * (iv[nn] - load[nn])
						if vv[nn] < vMin[nn] {
							vMin[nn] = vv[nn]
						}
					}
				}
			}
		}
	}
	for nn := range droops {
		droops[nn] = (m.VddV - vMin[nn]) * 1000
	}
	return droops, nil
}

// gridSupplyWindow is one common window of the grid supply solve: its step
// count and folded step constants (h/L, h/C and the coupling h·G/C).
type gridSupplyWindow struct {
	steps                  int32
	hOverL, hOverC, hCoupl float64
}

// GridThermalModel is the spatial die model: a Rows×Cols grid of thermal
// nodes, each a lumped RC to ambient (the Node model), with adjacent nodes
// exchanging heat through a LateralWPerC conductance. Concentrating
// sustained power on one node heats it well past the uniform-power die
// temperature — the hotspot the migration virus hunts.
type GridThermalModel struct {
	// Rows and Cols are the grid dimensions; nodes are indexed row-major.
	Rows, Cols int
	// Node is the per-node lumped thermal model. A 1×1 grid reproduces its
	// SteadyTempC exactly.
	Node ThermalModel
	// LateralWPerC is the thermal conductance between adjacent nodes in
	// W/°C. Zero decouples the nodes entirely.
	LateralWPerC float64
}

// DefaultGridThermalModel returns a rows×cols grid of the default lumped
// thermal model with the default lateral conductance.
func DefaultGridThermalModel(rows, cols int) GridThermalModel {
	return GridThermalModel{Rows: rows, Cols: cols, Node: DefaultThermalModel(), LateralWPerC: DefaultGridLateralWPerC}
}

// Nodes returns the node count of the grid.
func (g GridThermalModel) Nodes() int { return g.Rows * g.Cols }

// Validate checks the grid dimensions, the per-node model and the coupling.
func (g GridThermalModel) Validate() error {
	if g.Rows < 1 || g.Cols < 1 {
		return fmt.Errorf("powersim: grid thermal model needs at least a 1x1 grid (got %dx%d)", g.Rows, g.Cols)
	}
	if err := g.Node.Validate(); err != nil {
		return err
	}
	if !(g.LateralWPerC >= 0) || math.IsInf(g.LateralWPerC, 0) {
		return fmt.Errorf("powersim: grid thermal coupling must be finite and non-negative (got %g W/°C)", g.LateralWPerC)
	}
	return nil
}

// NodeTempsC integrates the grid driven by the per-node traces (row-major;
// empty traces are idle nodes that still conduct their neighbours' heat)
// and returns each node's peak steady-state temperature in °C. On a 1×1
// grid the result matches the lumped ThermalModel.SteadyTempC exactly.
func (g GridThermalModel) NodeTempsC(nodes []PowerTrace) ([]float64, error) {
	return new(GridScratch).NodeTempsC(g, nodes)
}

// NodeTempsC is g.NodeTempsC on s's buffers. The returned slice is valid
// until the next NodeTempsC call on s.
func (s *GridScratch) NodeTempsC(g GridThermalModel, nodes []PowerTrace) ([]float64, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := g.Nodes()
	commonDtS, err := s.waveform(n, nodes)
	if err != nil {
		return nil, err
	}
	m := g.Node
	s.temps = zeroed(s.temps, n)
	tMax := s.temps
	windows := len(commonDtS)
	if windows == 0 {
		for nn := range tMax {
			tMax[nn] = m.AmbientC
		}
		return tMax, nil
	}

	// Warm start at each node's own average-power operating point — the
	// lumped SteadyTempC arithmetic per node, so a 1×1 grid is
	// bit-identical.
	s.state = zeroed(s.state, 4*n)
	temps, lat, gain, tStart := s.state[:n], s.state[n:2*n], s.state[2*n:3*n], s.state[3*n:]
	for nn, tr := range nodes {
		avg := 0.0
		if tr.gridDriven() {
			avg = tr.AvgPowerW()
		}
		temps[nn] = m.AmbientC + m.RthCPerW*avg
		tMax[nn] = temps[nn]
	}

	// Step cap, tightened on coupled multi-node grids only (forward Euler
	// needs h < Cth / (1/Rth + 4·K) against the fastest combined leak); the
	// 1×1 step count stays exactly the lumped model's.
	maxStep := m.MaxStepS
	coupled := n > 1 && g.LateralWPerC > 0
	if coupled {
		if b := m.CthJPerC / (1/m.RthCPerW + 4*g.LateralWPerC); b < maxStep {
			maxStep = b
		}
	}

	for pass := 0; pass < m.Passes; pass++ {
		copy(tStart, temps)
		for w, dt := range commonDtS {
			if dt == 0 {
				continue
			}
			steps := int(dt/maxStep) + 1
			h := dt / float64(steps)
			// Distribute the step over the RC terms once per window so the
			// inner loop carries no divisions (the lumped model's folding).
			// A node draws its trace's window power, or nothing past its
			// end or without usable timing.
			for nn, tr := range nodes {
				p := 0.0
				if w < len(tr.Points) && tr.gridDriven() {
					p = tr.Points[w].PowerW
				}
				gain[nn] = h / m.CthJPerC * p
			}
			leak := h / (m.CthJPerC * m.RthCPerW)
			hK := h / m.CthJPerC * g.LateralWPerC
			for k := 0; k < steps; k++ {
				if coupled {
					lateralSums(lat, temps, g.Rows, g.Cols)
					for nn := range temps {
						temps[nn] += gain[nn] - leak*(temps[nn]-m.AmbientC) + hK*lat[nn]
						if temps[nn] > tMax[nn] {
							tMax[nn] = temps[nn]
						}
					}
				} else {
					for nn := range temps {
						temps[nn] += gain[nn] - leak*(temps[nn]-m.AmbientC)
						if temps[nn] > tMax[nn] {
							tMax[nn] = temps[nn]
						}
					}
				}
			}
		}
		// Exact-state convergence, as in the lumped model.
		if gridStateEqual(temps, tStart) {
			break
		}
	}
	return tMax, nil
}

// waveform validates the node-trace count and derives, in s.dtS, the
// common timing grid the per-node integrations advance on: one step per
// window of the longest node trace, each the max across nodes of that
// node's own window span, so no node's windows are artificially sharpened
// and all nodes stay in lockstep for the coupling terms. On a one-node grid
// this is exactly the node trace's own timing. Node traces may be empty
// (idle regions) and may mix domains; each contributes its own per-window
// span through the same domain arithmetic the lumped models use.
func (s *GridScratch) waveform(n int, nodes []PowerTrace) ([]float64, error) {
	if len(nodes) != n {
		return nil, fmt.Errorf("powersim: %d node traces for a %d-node grid", len(nodes), n)
	}
	windows := 0
	for _, tr := range nodes {
		if len(tr.Points) > windows {
			windows = len(tr.Points)
		}
	}
	s.dtS = zeroed(s.dtS, windows)
	dtS := s.dtS
	for _, tr := range nodes {
		if tr.Empty() {
			continue
		}
		if tr.TimeDomain() {
			for i := range tr.Points {
				if d := tr.PointDurationNS(i) * 1e-9; d > dtS[i] {
					dtS[i] = d
				}
			}
		} else if tr.FrequencyGHz > 0 {
			cycleS := 1 / (tr.FrequencyGHz * 1e9)
			for i, p := range tr.Points {
				if d := float64(p.Cycles) * cycleS; d > dtS[i] {
					dtS[i] = d
				}
			}
		}
	}
	return dtS, nil
}

// gridDriven reports whether a node trace drives its grid node: it has
// samples and usable timing (time-domain, or cycle-domain with a clock).
func (t PowerTrace) gridDriven() bool {
	return !t.Empty() && (t.TimeDomain() || t.FrequencyGHz > 0)
}

// zeroed returns buf resliced to n zeroed elements, grown when too short.
func zeroed[T any](buf []T, n int) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// lateralSums sets lat[n], for every node n of a rows×cols row-major grid,
// to the sum of x[m] - x[n] over n's 4-connected neighbours m, added in the
// order up, down, left, right (in-bounds only).
func lateralSums(lat, x []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			n := r*cols + c
			sum := 0.0
			if r > 0 {
				sum += x[n-cols] - x[n]
			}
			if r < rows-1 {
				sum += x[n+cols] - x[n]
			}
			if c > 0 {
				sum += x[n-1] - x[n]
			}
			if c < cols-1 {
				sum += x[n+1] - x[n]
			}
			lat[n] = sum
		}
	}
}

// gridStateEqual reports exact (bitwise value) equality of two state
// vectors — the grid version of the lumped models' exact-convergence check.
func gridStateEqual(a, b []float64) bool {
	for i := range a {
		//lint:allow floateq deliberate bitwise convergence check; inexact tolerance would change results
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameStates reports whether two state vectors hold the same bit patterns
// element by element — sameState over a whole grid.
func sameStates(a, b []float64) bool {
	for i := range a {
		if !sameState(a[i], b[i]) {
			return false
		}
	}
	return true
}
