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
	if err := g.Validate(); err != nil {
		return nil, err
	}
	s := new(GridScratch)
	dtS, err := s.waveform(g.Nodes(), nodes)
	if err != nil {
		return nil, err
	}
	return s.droopsMV(g, dtS, nodes, ringEmbeds(g.Rows, g.Cols)), nil
}

// GridScratch keeps the buffers of repeated grid solves, for a caller that
// solves once per evaluation. The zero value is ready to use. It is not
// safe for concurrent use.
type GridScratch struct {
	// dtS is the common step grid, cells the solves' per-window blocks
	// (one solve's at a time), win the supply solve's per-window step
	// constants and state the solvers' per-node vectors.
	dtS   []float64
	cells []float64
	win   []gridSupplyWindow
	state []float64
	// droops and temps are the returned results, kept apart so one
	// evaluation can hold both.
	droops, temps []float64
}

// Solve runs the supply and the thermal solves of one evaluation on s's
// buffers: droops is supply.NodeDroopsMV(nodes) and temps is
// thermal.NodeTempsC(nodes), bit for bit, from one derivation of the
// common step grid. The two grids must have the same shape. The returned
// slices are valid until the next Solve on s. A 2×2 grid, or one of two
// nodes, is integrated in registers on a ring (droopsInRegisters,
// tempsInRegisters), any other in the slice loops; both give the same bits.
func (s *GridScratch) Solve(supply GridSupplyModel, thermal GridThermalModel, nodes []PowerTrace) (droops, temps []float64, err error) {
	if err := supply.Validate(); err != nil {
		return nil, nil, err
	}
	if err := thermal.Validate(); err != nil {
		return nil, nil, err
	}
	if supply.Rows != thermal.Rows || supply.Cols != thermal.Cols {
		return nil, nil, fmt.Errorf("powersim: %dx%d supply grid and %dx%d thermal grid differ",
			supply.Rows, supply.Cols, thermal.Rows, thermal.Cols)
	}
	dtS, err := s.waveform(supply.Nodes(), nodes)
	if err != nil {
		return nil, nil, err
	}
	inRegisters := ringEmbeds(supply.Rows, supply.Cols)
	return s.droopsMV(supply, dtS, nodes, inRegisters), s.tempsC(thermal, dtS, nodes, inRegisters), nil
}

// droopsMV runs the supply solve over the common step grid commonDtS of
// the validated g, inRegisters (for a grid that ringEmbeds only) or in the
// slice loops, which serve any grid and are the tests' reference for the
// other. The result is in s.droops.
func (s *GridScratch) droopsMV(g GridSupplyModel, commonDtS []float64, nodes []PowerTrace, inRegisters bool) []float64 {
	n := g.Nodes()
	s.droops = zeroed(s.droops, n)
	droops := s.droops
	windows := len(commonDtS)
	if windows == 0 {
		return droops
	}

	m := g.Node
	// cells holds, per window, a block of 3 columns per node: every node's
	// load current, then the currents and the voltages the latest settling
	// pass entered the window with (the replay-stop record). In registers
	// the columns are the ring's slots instead, each node's load in its own
	// slot.
	var ring gridRing
	width := n
	if inRegisters {
		ring = newGridRing(g.Rows, g.Cols)
		width = ringSlots
	}
	stride := 3 * width
	s.cells = zeroed(s.cells, windows*stride)
	cells := s.cells

	// Per-node load current per window and warm-start average — the lumped
	// WorstDroopMV arithmetic, applied per node so a 1×1 grid is
	// bit-identical. Nodes whose trace carries no usable timing (empty, or
	// cycle-domain without a clock) draw nothing, matching the lumped
	// model's zero-droop answer for such traces.
	s.state = zeroed(s.state, 4*n)
	iv, vv, vMin, lat := s.state[:n], s.state[n:2*n], s.state[2*n:3*n], s.state[3*n:]
	for nn, tr := range nodes {
		c := nn
		if inRegisters {
			c = ring.slot[nn]
		}
		avg := 0.0
		if tr.gridDriven() {
			var weight float64
			timeDomain := tr.TimeDomain()
			for i, p := range tr.Points {
				ld := p.PowerW / m.VddV
				cells[i*stride+c] = ld
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

	if inRegisters {
		droopsInRegisters(m, &ring, coupled, win, cells, iv, vv, vMin)
	} else {
		droopsInSlices(g, coupled, win, cells, iv, vv, vMin, lat)
	}
	for nn := range droops {
		droops[nn] = (m.VddV - vMin[nn]) * 1000
	}
	return droops
}

// droopsInSlices runs the settling passes of the supply solve on node
// vectors, for a grid of any size: the per-window blocks of cells, the
// step constants of win, and the state vectors iv, vv and vMin (which it
// advances) and lat (scratch).
func droopsInSlices(g GridSupplyModel, coupled bool, win []gridSupplyWindow, cells, iv, vv, vMin, lat []float64) {
	m := g.Node
	n := len(iv)
	stride := 3 * n
	block := func(w int) (load, iRec, vRec []float64) {
		b := cells[w*stride : (w+1)*stride]
		return b[:n], b[n : 2*n], b[2*n:]
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
	if err := g.Validate(); err != nil {
		return nil, err
	}
	s := new(GridScratch)
	dtS, err := s.waveform(g.Nodes(), nodes)
	if err != nil {
		return nil, err
	}
	return s.tempsC(g, dtS, nodes, ringEmbeds(g.Rows, g.Cols)), nil
}

// tempsC runs the thermal solve over the common step grid commonDtS of the
// validated g, as droopsMV runs the supply solve. The result is in s.temps.
func (s *GridScratch) tempsC(g GridThermalModel, commonDtS []float64, nodes []PowerTrace, inRegisters bool) []float64 {
	n := g.Nodes()
	m := g.Node
	s.temps = zeroed(s.temps, n)
	tMax := s.temps
	windows := len(commonDtS)
	if windows == 0 {
		for nn := range tMax {
			tMax[nn] = m.AmbientC
		}
		return tMax
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
	if inRegisters {
		s.tempsInRegisters(g, coupled, maxStep, commonDtS, nodes, temps, tMax)
		return tMax
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
	return tMax
}

// ringSlots is the slot count of the grid solves in registers.
const ringSlots = 4

// The solves in registers (droopsInRegisters, tempsInRegisters) integrate
// a small grid with every per-node state in a local variable, unrolled per
// slot of a four-slot ring, as integrateLanes does for the lumped lanes,
// and read the step constants from memory. In the slice loops each substep
// stores every state to memory and loads it back, and the lateral sum
// indexes neighbours on top; on the chip grids that round trip, not the
// floating-point latency of the recurrence, is the bound (ROADMAP,
// "Measured dead ends").
//
// A grid embeds in the ring when each node's grid neighbours are the ring
// neighbours of its slot. A 2×2 grid is the ring itself, nodes 0, 1, 3, 2
// around it. A grid of two nodes is mirrored onto the two spare slots,
// nodes 0, 1, 1, 0: a mirror slot draws its node's load and stays equal to
// it bit for bit, so where a node has no neighbour in the grid its mirror
// contributes x − x, which is the +0 lateralSums starts its sum from. Each
// slot adds its two terms in lateralSums' order, so the solves in
// registers give the slice loops' bits, as long as no state overflows (a
// 2×2 sum skips lateralSums' leading +0, which changes nothing while no
// state is −0). A chain of three or four nodes does not embed without
// zero-weighted edges, and 0·NaN = NaN would carry a NaN between nodes
// that are not neighbours, so such grids, and larger ones, take the slice
// loops. So does a single node: it would fill all four slots, and four
// copies of its supply solve ran slower than the slice loop's one.

// ringEmbeds reports whether a rows×cols grid embeds in the ring of the
// solves in registers.
func ringEmbeds(rows, cols int) bool {
	return rows*cols == 2 || rows == 2 && cols == 2
}

// gridRing is the embedding of a grid in the ring: the node each slot
// holds, and each node's own slot (the first that holds it).
type gridRing struct {
	node, slot [ringSlots]int
}

// newGridRing returns the ring of a rows×cols grid that ringEmbeds.
func newGridRing(rows, cols int) gridRing {
	var r gridRing
	if rows*cols == 2 {
		r.node = [ringSlots]int{0, 1, 1, 0}
	} else {
		r.node = [ringSlots]int{0, 1, 3, 2}
	}
	for k := ringSlots - 1; k >= 0; k-- {
		r.slot[r.node[k]] = k
	}
	return r
}

// droopsInRegisters runs the settling passes of the supply solve of a grid
// that ringEmbeds, with the expressions of droopsInSlices: cells holds the
// ring's per-window blocks (the nodes' load currents in their own slots,
// which it copies into the mirror slots, then the replay-stop record) and
// win the step constants, and the node vectors iv, vv and vMin hold the
// warm start; it writes the node minima back into vMin.
func droopsInRegisters(m SupplyModel, ring *gridRing, coupled bool, win []gridSupplyWindow, cells, iv, vv, vMin []float64) {
	const stride = 3 * ringSlots
	var i, v, lo [ringSlots]float64
	for k, nn := range ring.node {
		i[k], v[k], lo[k] = iv[nn], vv[nn], vMin[nn]
		if own := ring.slot[nn]; own != k {
			for w := range win {
				cells[w*stride+k] = cells[w*stride+own]
			}
		}
	}
	// Only the states and minima are local variables; the constants are
	// read from memory, which leaves the registers to the loop-carried
	// values.
	i0, v0, lo0 := i[0], v[0], lo[0]
	i1, v1, lo1 := i[1], v[1], lo[1]
	i2, v2, lo2 := i[2], v[2], lo[2]
	i3, v3, lo3 := i[3], v[3], lo[3]
settle:
	for pass := 0; pass < m.Passes; pass++ {
		for w := range win {
			// The block's columns: four loads, four currents, four voltages.
			b := (*[stride]float64)(cells[w*stride:])
			if pass > 0 && sameState(i0, b[4]) && sameState(i1, b[5]) && sameState(i2, b[6]) && sameState(i3, b[7]) &&
				sameState(v0, b[8]) && sameState(v1, b[9]) && sameState(v2, b[10]) && sameState(v3, b[11]) {
				break settle
			}
			b[4], b[5], b[6], b[7] = i0, i1, i2, i3
			b[8], b[9], b[10], b[11] = v0, v1, v2, v3
			c := &win[w]
			if coupled {
				for k := int32(0); k < c.steps; k++ {
					i0 += c.hOverL * (m.VddV - v0 - m.ResistanceOhm*i0)
					i1 += c.hOverL * (m.VddV - v1 - m.ResistanceOhm*i1)
					i2 += c.hOverL * (m.VddV - v2 - m.ResistanceOhm*i2)
					i3 += c.hOverL * (m.VddV - v3 - m.ResistanceOhm*i3)
					l0 := (v3 - v0) + (v1 - v0)
					l1 := (v2 - v1) + (v0 - v1)
					l2 := (v1 - v2) + (v3 - v2)
					l3 := (v0 - v3) + (v2 - v3)
					v0 += c.hOverC*(i0-b[0]) + c.hCoupl*l0
					v1 += c.hOverC*(i1-b[1]) + c.hCoupl*l1
					v2 += c.hOverC*(i2-b[2]) + c.hCoupl*l2
					v3 += c.hOverC*(i3-b[3]) + c.hCoupl*l3
					if v0 < lo0 {
						lo0 = v0
					}
					if v1 < lo1 {
						lo1 = v1
					}
					if v2 < lo2 {
						lo2 = v2
					}
					if v3 < lo3 {
						lo3 = v3
					}
				}
			} else {
				for k := int32(0); k < c.steps; k++ {
					i0 += c.hOverL * (m.VddV - v0 - m.ResistanceOhm*i0)
					v0 += c.hOverC * (i0 - b[0])
					if v0 < lo0 {
						lo0 = v0
					}
					i1 += c.hOverL * (m.VddV - v1 - m.ResistanceOhm*i1)
					v1 += c.hOverC * (i1 - b[1])
					if v1 < lo1 {
						lo1 = v1
					}
					i2 += c.hOverL * (m.VddV - v2 - m.ResistanceOhm*i2)
					v2 += c.hOverC * (i2 - b[2])
					if v2 < lo2 {
						lo2 = v2
					}
					i3 += c.hOverL * (m.VddV - v3 - m.ResistanceOhm*i3)
					v3 += c.hOverC * (i3 - b[3])
					if v3 < lo3 {
						lo3 = v3
					}
				}
			}
		}
	}
	lo = [ringSlots]float64{lo0, lo1, lo2, lo3}
	for nn := range vMin {
		vMin[nn] = lo[ring.slot[nn]]
	}
}

// heatBlock is the length of a window's block of a thermal solve in
// registers: its step count, then the step constants the slice loop derives
// in every pass, the leak h/(Cth·Rth), the coupling h·K/Cth and each slot's
// heat gain h·P/Cth.
const heatBlock = 3 + ringSlots

// tempsInRegisters runs the settling passes of the thermal solve of a grid
// that ringEmbeds, with the expressions of the slice loop in NodeTempsC.
// It derives every window's step constants once, into s.cells one block
// per window, where the slice loop derives them in every pass. temps holds
// the nodes' warm start and tMax their maxima so far, which it raises.
func (s *GridScratch) tempsInRegisters(g GridThermalModel, coupled bool, maxStep float64, dtS []float64, nodes []PowerTrace, temps, tMax []float64) {
	m := g.Node
	ring := newGridRing(g.Rows, g.Cols)
	// Each slot's points: its node's, when the node's trace drives it.
	var points [ringSlots][]TracePoint
	for k, nn := range ring.node {
		if tr := nodes[nn]; tr.gridDriven() {
			points[k] = tr.Points
		}
	}
	// The slice loop's per-window expressions, with the shared quotients
	// h/Cth and Cth·Rth taken once: (h/Cth)·P is h / Cth * P, bit for bit.
	// A slot draws no heat past its trace's end, nor when its node is not
	// driven. A zero-duration window keeps zero steps.
	s.cells = zeroed(s.cells, len(dtS)*heatBlock)
	heat := s.cells
	cthRth := m.CthJPerC * m.RthCPerW
	for w, dt := range dtS {
		if dt == 0 {
			continue
		}
		steps := int(dt/maxStep) + 1
		h := dt / float64(steps)
		hc := h / m.CthJPerC
		b := (*[heatBlock]float64)(heat[w*heatBlock:])
		b[0], b[1], b[2] = float64(steps), h/cthRth, hc*g.LateralWPerC
		for k, pts := range points {
			if w < len(pts) {
				b[3+k] = hc * pts[w].PowerW
			}
		}
	}

	amb := m.AmbientC
	var t, hi [ringSlots]float64
	for k, nn := range ring.node {
		t[k], hi[k] = temps[nn], tMax[nn]
	}
	t0, t1, t2, t3 := t[0], t[1], t[2], t[3]
	hi0, hi1, hi2, hi3 := hi[0], hi[1], hi[2], hi[3]
	for pass := 0; pass < m.Passes; pass++ {
		start := [ringSlots]float64{t0, t1, t2, t3}
		if coupled {
			for w := 0; w < len(heat); w += heatBlock {
				b := (*[heatBlock]float64)(heat[w:])
				for k, steps := 0, int(b[0]); k < steps; k++ {
					l0 := (t3 - t0) + (t1 - t0)
					l1 := (t2 - t1) + (t0 - t1)
					l2 := (t1 - t2) + (t3 - t2)
					l3 := (t0 - t3) + (t2 - t3)
					t0 += b[3] - b[1]*(t0-amb) + b[2]*l0
					t1 += b[4] - b[1]*(t1-amb) + b[2]*l1
					t2 += b[5] - b[1]*(t2-amb) + b[2]*l2
					t3 += b[6] - b[1]*(t3-amb) + b[2]*l3
					if t0 > hi0 {
						hi0 = t0
					}
					if t1 > hi1 {
						hi1 = t1
					}
					if t2 > hi2 {
						hi2 = t2
					}
					if t3 > hi3 {
						hi3 = t3
					}
				}
			}
		} else {
			for w := 0; w < len(heat); w += heatBlock {
				b := (*[heatBlock]float64)(heat[w:])
				for k, steps := 0, int(b[0]); k < steps; k++ {
					t0 += b[3] - b[1]*(t0-amb)
					t1 += b[4] - b[1]*(t1-amb)
					t2 += b[5] - b[1]*(t2-amb)
					t3 += b[6] - b[1]*(t3-amb)
					if t0 > hi0 {
						hi0 = t0
					}
					if t1 > hi1 {
						hi1 = t1
					}
					if t2 > hi2 {
						hi2 = t2
					}
					if t3 > hi3 {
						hi3 = t3
					}
				}
			}
		}
		// Exact-state convergence, as in the slice loop.
		//lint:allow floateq deliberate exact-state convergence check; stopping is bit-identical
		if t0 == start[0] && t1 == start[1] && t2 == start[2] && t3 == start[3] {
			break
		}
	}
	hi = [ringSlots]float64{hi0, hi1, hi2, hi3}
	for nn := range tMax {
		tMax[nn] = hi[ring.slot[nn]]
	}
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
