package powersim

import (
	"math"
	"testing"
)

// sumTracesCycleGrid is the retired cycle-domain chip aggregation, kept
// verbatim as the test oracle for the time-domain path: on a one-clock chip,
// SumTracesTime must reproduce this exact-integer cycle arithmetic to ≤1e-9
// (TestSumTracesTimeMatchesCycleOracle and FuzzSumTracesOneClockOracle).
// It aligns several one-clock power traces onto a common grid of
// windowCycles-long windows — shifting trace i right by offsets[i] cycles
// (nil means no skew) — and sums them into a single chip-level trace.
func sumTracesCycleGrid(windowCycles int, offsets []uint64, traces ...PowerTrace) (PowerTrace, error) {
	if windowCycles <= 0 {
		return PowerTrace{}, errOracle("non-positive sum window length")
	}
	if len(traces) == 0 {
		return PowerTrace{}, errOracle("no traces to sum")
	}
	if offsets != nil && len(offsets) != len(traces) {
		return PowerTrace{}, errOracle("offset/trace count mismatch")
	}
	// The clock domain is set by the first trace that actually has samples;
	// empty traces carry no timing and are exempt from the frequency check.
	freq := traces[0].FrequencyGHz
	for _, tr := range traces {
		if !tr.Empty() {
			freq = tr.FrequencyGHz
			break
		}
	}
	var end uint64
	for _, tr := range traces {
		if tr.Empty() {
			// An empty trace has no span: its skew must not stretch the grid
			// with zero-power windows that would dilute the chip averages.
			continue
		}
		if tr.FrequencyGHz != freq {
			return PowerTrace{}, errOracle("mixed clock frequencies")
		}
	}
	for i, tr := range traces {
		if tr.Empty() {
			continue
		}
		var cycles uint64
		for _, p := range tr.Points {
			cycles += p.Cycles
		}
		if offsets != nil {
			cycles += offsets[i]
		}
		if cycles > end {
			end = cycles
		}
	}
	out := PowerTrace{WindowCycles: windowCycles, FrequencyGHz: freq}
	if end == 0 {
		return out, nil
	}
	wc := uint64(windowCycles)
	energy := make([]float64, int((end+wc-1)/wc))
	for i, tr := range traces {
		cursor := uint64(0)
		if offsets != nil {
			cursor = offsets[i]
		}
		for _, p := range tr.Points {
			if p.Cycles == 0 {
				continue
			}
			perCycle := p.EnergyPJ / float64(p.Cycles)
			remaining := p.Cycles
			for remaining > 0 {
				w := cursor / wc
				take := (w+1)*wc - cursor
				if take > remaining {
					take = remaining
				}
				energy[w] += float64(take) * perCycle
				cursor += take
				remaining -= take
			}
		}
	}
	out.Points = make([]TracePoint, len(energy))
	for w := range energy {
		cycles := wc
		if tail := end - uint64(w)*wc; tail < cycles {
			cycles = tail
		}
		pt := TracePoint{Cycles: cycles, EnergyPJ: energy[w]}
		if cycles > 0 {
			pt.PowerW = pt.EnergyPJ / float64(cycles) * freq / 1000
		}
		out.Points[w] = pt
	}
	return out, nil
}

type errOracle string

func (e errOracle) Error() string { return "powersim oracle: " + string(e) }

// requireOneClockMatch asserts that the time-domain aggregation of one-clock
// traces matches the cycle-grid oracle: same grid (up to one empty trailing
// window born of float ceil rounding), per-window energies equal to within
// 1e-9 of the total energy scale, and identical totals.
func requireOneClockMatch(t *testing.T, cyc, tim PowerTrace) {
	t.Helper()
	total := energyPJ(cyc)
	scale := 1e-9 * (1 + total)
	if d := len(tim.Points) - len(cyc.Points); d < 0 || d > 1 {
		t.Fatalf("time grid has %d windows, cycle grid %d (want equal or one extra)", len(tim.Points), len(cyc.Points))
	}
	for i := range tim.Points {
		ce := 0.0
		if i < len(cyc.Points) {
			ce = cyc.Points[i].EnergyPJ
		}
		if te := tim.Points[i].EnergyPJ; math.Abs(ce-te) > scale {
			t.Errorf("window %d: time-grid energy %v, cycle-grid %v (tolerance %g)", i, te, ce, scale)
		}
	}
	if got := energyPJ(tim); math.Abs(got-total) > scale {
		t.Errorf("time-grid total energy %v, cycle-grid %v", got, total)
	}
	if ca, ta := cyc.AvgPowerW(), tim.AvgPowerW(); math.Abs(ca-ta) > 1e-9*(1+ca) {
		t.Errorf("time-grid average power %v W, cycle-grid %v W", ta, ca)
	}
}

// TestSumTracesTimeMatchesCycleOracle pins the tentpole equivalence at the
// trace level: on one clock the nanosecond grid reproduces the cycle grid,
// window for window, including start skews and mixed window lengths.
func TestSumTracesTimeMatchesCycleOracle(t *testing.T) {
	a := flatTrace(4, 0.5)           // 64-cycle windows at 2 GHz
	b := squareTrace(4, 1, 0.2, 1.0) // same clock
	fine := PowerTrace{WindowCycles: 32, FrequencyGHz: 2}
	for i := 0; i < 7; i++ {
		fine.Points = append(fine.Points, TracePoint{Cycles: 32, EnergyPJ: 75, PowerW: 75 / 32.0 * 2 / 1000})
	}
	for _, tc := range []struct {
		name    string
		offsets []uint64
		traces  []PowerTrace
	}{
		{"aligned", nil, []PowerTrace{a, b}},
		{"skewed", []uint64{0, 32}, []PowerTrace{a, b}},
		{"mixed-windows", []uint64{17, 0, 130}, []PowerTrace{fine, a, b}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cyc, err := sumTracesCycleGrid(64, tc.offsets, tc.traces...)
			if err != nil {
				t.Fatal(err)
			}
			freq := 2.0
			var offsetsNS []float64
			for _, off := range tc.offsets {
				offsetsNS = append(offsetsNS, float64(off)/freq)
			}
			tim, err := SumTracesTime(64/freq, offsetsNS, tc.traces...)
			if err != nil {
				t.Fatal(err)
			}
			requireOneClockMatch(t, cyc, tim)
		})
	}
}

// The oracle's own behaviour stays locked while it serves as the reference:
// energy conservation, alignment, skews, resampling across window lengths,
// input validation and the empty-trace skew regression all moved here from
// the shim's former unit tests.

func TestCycleOracleConservesEnergyAndAligns(t *testing.T) {
	a := flatTrace(4, 0.5)           // 256 cycles at 0.5 W
	b := squareTrace(4, 1, 0.2, 1.0) // 256 cycles alternating
	sum, err := sumTracesCycleGrid(64, nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Points) != 4 {
		t.Fatalf("summed trace has %d windows, want 4", len(sum.Points))
	}
	var wantE, gotE float64
	for i := range a.Points {
		wantE += a.Points[i].EnergyPJ + b.Points[i].EnergyPJ
	}
	for _, p := range sum.Points {
		gotE += p.EnergyPJ
	}
	if math.Abs(gotE-wantE) > 1e-9 {
		t.Errorf("summed energy %v, want %v (energy must be conserved)", gotE, wantE)
	}
	if got, want := sum.Points[0].PowerW, 0.5+0.2; math.Abs(got-want) > 1e-12 {
		t.Errorf("window 0 power %v, want %v", got, want)
	}
	if got, want := sum.Points[1].PowerW, 0.5+1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("window 1 power %v, want %v", got, want)
	}
}

func TestCycleOracleHonoursOffsets(t *testing.T) {
	a := flatTrace(2, 1.0)
	// Offset the second core by half a window: its energy splits across the
	// grid windows it overlaps, and the total span grows by the skew.
	sum, err := sumTracesCycleGrid(64, []uint64{0, 32}, a, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Points) != 3 {
		t.Fatalf("skewed sum has %d windows, want 3", len(sum.Points))
	}
	perWindow := a.Points[0].EnergyPJ
	if got, want := sum.Points[0].EnergyPJ, perWindow*1.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("window 0 energy %v, want %v (full + half overlap)", got, want)
	}
	if got, want := sum.Points[2].EnergyPJ, perWindow*0.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("tail window energy %v, want %v", got, want)
	}
	if got := sum.Points[2].Cycles; got != 32 {
		t.Errorf("tail window spans %d cycles, want 32", got)
	}
}

func TestCycleOracleResamplesMixedWindowLengths(t *testing.T) {
	fine := PowerTrace{WindowCycles: 32, FrequencyGHz: 2}
	for i := 0; i < 4; i++ {
		fine.Points = append(fine.Points, TracePoint{Cycles: 32, EnergyPJ: 100, PowerW: 100 / 32.0 * 2 / 1000})
	}
	coarse := flatTrace(2, 0.5)
	sum, err := sumTracesCycleGrid(64, nil, fine, coarse)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Points) != 2 {
		t.Fatalf("mixed-window sum has %d windows, want 2", len(sum.Points))
	}
	want := 200 + coarse.Points[0].EnergyPJ
	if got := sum.Points[0].EnergyPJ; math.Abs(got-want) > 1e-9 {
		t.Errorf("window 0 energy %v, want %v", got, want)
	}
}

func TestCycleOracleRejectsBadInputs(t *testing.T) {
	a := flatTrace(2, 1.0)
	if _, err := sumTracesCycleGrid(0, nil, a); err == nil {
		t.Error("non-positive window length should be rejected")
	}
	if _, err := sumTracesCycleGrid(64, nil); err == nil {
		t.Error("empty trace list should be rejected")
	}
	if _, err := sumTracesCycleGrid(64, []uint64{1}, a, a); err == nil {
		t.Error("offset/trace count mismatch should be rejected")
	}
	b := a
	b.FrequencyGHz = 3
	if _, err := sumTracesCycleGrid(64, nil, a, b); err == nil {
		t.Error("mixed clock frequencies should be rejected")
	}
}

// TestCycleOracleSkipsEmptyTraceOffsets is the regression pin carried over
// from the shim: an empty trace with a nonzero start skew used to stretch the
// grid with zero-power windows, silently dragging down the chip averages.
func TestCycleOracleSkipsEmptyTraceOffsets(t *testing.T) {
	full := flatTrace(4, 1.0)
	empty := PowerTrace{WindowCycles: 64, FrequencyGHz: 2}
	sum, err := sumTracesCycleGrid(64, []uint64{0, 4096}, full, empty)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Points) != 4 {
		t.Errorf("empty trace's skew inflated the grid to %d windows, want 4", len(sum.Points))
	}
	if avg, want := sum.AvgPowerW(), full.AvgPowerW(); math.Abs(avg-want) > 1e-12 {
		t.Errorf("average power %v dragged down by phantom windows, want %v", avg, want)
	}
	// An empty trace is also exempt from the clock-domain check.
	if _, err := sumTracesCycleGrid(64, nil, PowerTrace{FrequencyGHz: 3}, full); err != nil {
		t.Errorf("empty trace on another clock should be tolerated: %v", err)
	}
}

// worstDroopMVAllPasses is the retired lumped droop solve, kept verbatim as
// the test oracle for the replay stop: it integrates every settling pass in
// full and stops only when a pass ends in the exact state it started from.
// SupplyModel.WorstDroopMV must reproduce it bit for bit
// (TestSupplyReplayStopMatchesOracle and FuzzSupplyReplayStop).
func worstDroopMVAllPasses(s SupplyModel, t PowerTrace) float64 {
	if t.Empty() || (!t.TimeDomain() && t.FrequencyGHz <= 0) {
		return 0
	}
	load := make([]float64, len(t.Points))
	dt := make([]float64, len(t.Points))
	avg := 0.0
	var weight float64
	if t.TimeDomain() {
		for i, p := range t.Points {
			load[i] = p.PowerW / s.VddV
			dt[i] = t.PointDurationNS(i) * 1e-9
			avg += load[i] * dt[i]
			weight += dt[i]
		}
	} else {
		cycleS := 1 / (t.FrequencyGHz * 1e9)
		for i, p := range t.Points {
			load[i] = p.PowerW / s.VddV
			dt[i] = float64(p.Cycles) * cycleS
			avg += load[i] * float64(p.Cycles)
			weight += float64(p.Cycles)
		}
	}
	if weight == 0 {
		return 0
	}
	avg /= weight

	steps := make([]int32, len(t.Points))
	hOverL := make([]float64, len(t.Points))
	hOverC := make([]float64, len(t.Points))
	for n := range t.Points {
		if dt[n] == 0 {
			continue
		}
		k := int(dt[n]/s.MaxStepS) + 1
		h := dt[n] / float64(k)
		steps[n] = int32(k)
		hOverL[n] = h / s.InductanceH
		hOverC[n] = h / s.CapacitanceF
	}

	i := avg
	v := s.VddV - avg*s.ResistanceOhm
	vMin := v

	for pass := 0; pass < s.Passes; pass++ {
		iStart, vStart := i, v
		for n := range t.Points {
			hL, hC, ld := hOverL[n], hOverC[n], load[n]
			for k := int32(0); k < steps[n]; k++ {
				i += hL * (s.VddV - v - s.ResistanceOhm*i)
				v += hC * (i - ld)
				if v < vMin {
					vMin = v
				}
			}
		}
		if i == iStart && v == vStart {
			break
		}
	}
	return (s.VddV - vMin) * 1000
}

// nodeDroopsMVAllPasses is the retired grid droop solve, kept verbatim as
// the test oracle for the replay stop: every settling pass runs in full
// until one ends in the exact state it started from.
// GridSupplyModel.NodeDroopsMV must reproduce it bit for bit.
func nodeDroopsMVAllPasses(g GridSupplyModel, nodes []PowerTrace) ([]float64, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := g.Nodes()
	commonDtS, err := new(GridScratch).waveform(n, nodes)
	if err != nil {
		return nil, err
	}
	droops := make([]float64, n)
	if len(commonDtS) == 0 {
		return droops, nil
	}

	s := g.Node
	load := make([][]float64, n)
	iv := make([]float64, n)
	vv := make([]float64, n)
	vMin := make([]float64, n)
	for nn, tr := range nodes {
		ld := make([]float64, len(commonDtS))
		avg := 0.0
		if !tr.Empty() && (tr.TimeDomain() || tr.FrequencyGHz > 0) {
			var weight float64
			if tr.TimeDomain() {
				for i, p := range tr.Points {
					ld[i] = p.PowerW / s.VddV
					d := tr.PointDurationNS(i) * 1e-9
					avg += ld[i] * d
					weight += d
				}
			} else {
				for i, p := range tr.Points {
					ld[i] = p.PowerW / s.VddV
					avg += ld[i] * float64(p.Cycles)
					weight += float64(p.Cycles)
				}
			}
			if weight == 0 {
				avg = 0
			} else {
				avg /= weight
			}
		}
		load[nn] = ld
		iv[nn] = avg
		vv[nn] = s.VddV - avg*s.ResistanceOhm
		vMin[nn] = vv[nn]
	}

	maxStep := s.MaxStepS
	coupled := n > 1 && g.CouplingS > 0
	if coupled {
		if b := s.CapacitanceF / (4 * g.CouplingS); b < maxStep {
			maxStep = b
		}
	}
	steps := make([]int32, len(commonDtS))
	hOverL := make([]float64, len(commonDtS))
	hOverC := make([]float64, len(commonDtS))
	hCoupl := make([]float64, len(commonDtS))
	for w, dt := range commonDtS {
		if dt == 0 {
			continue
		}
		k := int(dt/maxStep) + 1
		h := dt / float64(k)
		steps[w] = int32(k)
		hOverL[w] = h / s.InductanceH
		hOverC[w] = h / s.CapacitanceF
		hCoupl[w] = h / s.CapacitanceF * g.CouplingS
	}

	nbr := gridNeighbors(g.Rows, g.Cols)
	lat := make([]float64, n)
	iStart := make([]float64, n)
	vStart := make([]float64, n)

	for pass := 0; pass < s.Passes; pass++ {
		copy(iStart, iv)
		copy(vStart, vv)
		for w := 0; w < len(commonDtS); w++ {
			hL, hC, hG := hOverL[w], hOverC[w], hCoupl[w]
			for k := int32(0); k < steps[w]; k++ {
				if coupled {
					for nn := range iv {
						iv[nn] += hL * (s.VddV - vv[nn] - s.ResistanceOhm*iv[nn])
					}
					for nn := range lat {
						sum := 0.0
						for _, m := range nbr[nn] {
							sum += vv[m] - vv[nn]
						}
						lat[nn] = sum
					}
					for nn := range vv {
						vv[nn] += hC*(iv[nn]-load[nn][w]) + hG*lat[nn]
						if vv[nn] < vMin[nn] {
							vMin[nn] = vv[nn]
						}
					}
				} else {
					for nn := range iv {
						iv[nn] += hL * (s.VddV - vv[nn] - s.ResistanceOhm*iv[nn])
						vv[nn] += hC * (iv[nn] - load[nn][w])
						if vv[nn] < vMin[nn] {
							vMin[nn] = vv[nn]
						}
					}
				}
			}
		}
		if gridStateEqual(iv, iStart) && gridStateEqual(vv, vStart) {
			break
		}
	}
	for nn := range droops {
		droops[nn] = (s.VddV - vMin[nn]) * 1000
	}
	return droops, nil
}

// requireDroopsMatchOracle asserts that the lumped and grid droop solves of
// one floorplan reproduce their all-passes oracles bit for bit: the grid
// solve node by node, and the lumped solve of every node trace on the grid's
// node model.
func requireDroopsMatchOracle(t *testing.T, g GridSupplyModel, nodes []PowerTrace) {
	t.Helper()
	for k, tr := range nodes {
		got, want := g.Node.WorstDroopMV(tr), worstDroopMVAllPasses(g.Node, tr)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("node %d lumped droop %.17g mV, all-passes oracle %.17g mV", k, got, want)
		}
	}
	got, err := g.NodeDroopsMV(nodes)
	if err != nil {
		t.Fatalf("grid droop solve: %v", err)
	}
	want, err := nodeDroopsMVAllPasses(g, nodes)
	if err != nil {
		t.Fatalf("grid oracle: %v", err)
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Errorf("node %d grid droop %.17g mV, all-passes oracle %.17g mV", k, got[k], want[k])
		}
	}
}

// TestSupplyReplayStopMatchesOracle pins the replay stop: ending a settling
// pass where it rejoins the previous pass must leave every droop bit-identical
// to integrating all passes.
func TestSupplyReplayStopMatchesOracle(t *testing.T) {
	resonant := squareTrace(96, 2, 0.2, 1.8)
	mixed, err := SumTracesTime(32, []float64{0, 7.5},
		flatTraceAt(40, 64, 2.0, 0.8), squareTrace(50, 3, 0.1, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	// Zero-duration windows: cycle-domain points without cycles, and
	// time-domain points without a duration or a clock.
	gaps := squareTrace(48, 2, 0.3, 1.2)
	for i := 5; i < len(gaps.Points); i += 7 {
		gaps.Points[i].Cycles = 0
	}
	timeGaps := timeTrace(40, 0.9, 24)
	for i := 3; i < len(timeGaps.Points); i += 5 {
		timeGaps.Points[i].DurationNS = 0
		timeGaps.Points[i].PowerW = 2.5
	}
	nanLoad := squareTrace(32, 2, 0.2, 1.8)
	nanLoad.Points[9].PowerW = math.NaN()
	idle := PowerTrace{WindowCycles: 64, FrequencyGHz: 2}

	onePass := defaultGridSupply(2, 2)
	onePass.Node.Passes = 1
	decoupled := defaultGridSupply(2, 2)
	decoupled.CouplingS = 0
	for _, tc := range []struct {
		name  string
		grid  GridSupplyModel
		nodes []PowerTrace
	}{
		{"1x1 cycle-domain", defaultGridSupply(1, 1), []PowerTrace{resonant}},
		{"1x1 time-domain", defaultGridSupply(1, 1), []PowerTrace{mixed}},
		{"1x1 constant load", defaultGridSupply(1, 1), []PowerTrace{flatTrace(20, 1.0)}},
		{"2x2 default coupling", defaultGridSupply(2, 2), []PowerTrace{resonant, mixed, gaps, timeGaps}},
		{"2x2 idle nodes", defaultGridSupply(2, 2), []PowerTrace{resonant, idle, PowerTrace{}, gaps}},
		{"2x2 coupling 0", decoupled, []PowerTrace{resonant, mixed, idle, gaps}},
		{"1x2 zero-duration windows", defaultGridSupply(1, 2), []PowerTrace{gaps, timeGaps}},
		{"2x2 one pass", onePass, []PowerTrace{resonant, mixed, gaps, idle}},
		{"1x1 NaN load", defaultGridSupply(1, 1), []PowerTrace{nanLoad}},
		{"2x2 NaN load", defaultGridSupply(2, 2), []PowerTrace{nanLoad, resonant, idle, mixed}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			requireDroopsMatchOracle(t, tc.grid, tc.nodes)
		})
	}
}

// gridNeighbors returns, for each node of a rows×cols row-major grid, the
// indices of its 4-connected neighbours (up, down, left, right; in-bounds
// only). The oracle keeps this explicit table so it does not share the
// solvers' index arithmetic.
func gridNeighbors(rows, cols int) [][]int {
	nbr := make([][]int, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			n := r*cols + c
			if r > 0 {
				nbr[n] = append(nbr[n], n-cols)
			}
			if r < rows-1 {
				nbr[n] = append(nbr[n], n+cols)
			}
			if c > 0 {
				nbr[n] = append(nbr[n], n-1)
			}
			if c < cols-1 {
				nbr[n] = append(nbr[n], n+1)
			}
		}
	}
	return nbr
}
