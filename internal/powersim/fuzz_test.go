package powersim

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzSumTraces drives the time-domain aggregator with randomized trace
// shapes — window lengths, point counts, clock frequencies and start skews
// derived deterministically from the fuzzed seed — and asserts that total
// energy is conserved to 1e-9, the invariant the chip-level supply and
// thermal analyses depend on.
func FuzzSumTraces(f *testing.F) {
	f.Add(int64(1), uint8(2), 32.0)
	f.Add(int64(7), uint8(4), 53.5)
	f.Add(int64(42), uint8(1), 5.0)
	f.Add(int64(-9), uint8(255), 999.25)
	f.Fuzz(func(t *testing.T, seed int64, nTraces uint8, windowNS float64) {
		if !(windowNS > 1e-3) || windowNS > 1e6 {
			t.Skip("window length out of the supported range")
		}
		n := int(nTraces%6) + 1
		rng := rand.New(rand.NewSource(seed))
		traces := make([]PowerTrace, n)
		offsets := make([]float64, n)
		var want float64
		for i := range traces {
			freq := 0.4 + 4*rng.Float64() // 0.4–4.4 GHz
			tr := PowerTrace{WindowCycles: 1 + rng.Intn(256), FrequencyGHz: freq}
			for j, points := 0, rng.Intn(40); j < points; j++ {
				cycles := uint64(1 + rng.Intn(tr.WindowCycles))
				e := rng.Float64() * 1000
				p := TracePoint{Cycles: cycles, EnergyPJ: e}
				p.PowerW = e / float64(cycles) * freq / 1000
				tr.Points = append(tr.Points, p)
				want += e
			}
			offsets[i] = rng.Float64() * 500
			traces[i] = tr
		}
		sum, err := SumTracesTime(windowNS, offsets, traces...)
		if err != nil {
			t.Fatalf("SumTracesTime: %v", err)
		}
		got := sum.TotalEnergyPJ()
		if diff := math.Abs(got - want); diff > 1e-9*math.Max(1, want) {
			t.Errorf("energy not conserved: got %v pJ, want %v pJ (diff %g)", got, want, diff)
		}
		for i := range sum.Points {
			if d := sum.Points[i].DurationNS; d < 0 || d > windowNS*(1+1e-12) {
				t.Errorf("window %d spans %v ns, outside [0, %v]", i, d, windowNS)
			}
		}
	})
}

// FuzzSumTracesOneClockOracle is the permanent equivalence oracle for the
// retired cycle-grid shim: for random window lengths, start skews, clock
// frequencies and trace shapes that share one clock, SumTracesTime on the
// matching nanosecond grid must reproduce the exact-integer cycle-grid
// aggregation (sumTracesCycleGrid) window for window to ≤1e-9 of the chip
// energy scale. Wired into `make fuzz` and the CI fuzz smoke step.
func FuzzSumTracesOneClockOracle(f *testing.F) {
	f.Add(int64(1), uint8(2), uint16(64))
	f.Add(int64(7), uint8(4), uint16(48))
	f.Add(int64(42), uint8(1), uint16(1))
	f.Add(int64(-9), uint8(255), uint16(1023))
	f.Fuzz(func(t *testing.T, seed int64, nTraces uint8, windowCycles uint16) {
		wc := int(windowCycles)%1024 + 1
		n := int(nTraces%6) + 1
		rng := rand.New(rand.NewSource(seed))
		freq := 0.4 + 4*rng.Float64() // one shared clock, 0.4–4.4 GHz
		traces := make([]PowerTrace, n)
		offsets := make([]uint64, n)
		offsetsNS := make([]float64, n)
		for i := range traces {
			tr := PowerTrace{WindowCycles: 1 + rng.Intn(256), FrequencyGHz: freq}
			for j, points := 0, rng.Intn(40); j < points; j++ {
				cycles := uint64(1 + rng.Intn(tr.WindowCycles))
				e := rng.Float64() * 1000
				p := TracePoint{Cycles: cycles, EnergyPJ: e}
				p.PowerW = e / float64(cycles) * freq / 1000
				tr.Points = append(tr.Points, p)
			}
			offsets[i] = uint64(rng.Intn(2048))
			offsetsNS[i] = float64(offsets[i]) / freq
			traces[i] = tr
		}
		cyc, err := sumTracesCycleGrid(wc, offsets, traces...)
		if err != nil {
			t.Fatalf("cycle-grid oracle: %v", err)
		}
		tim, err := SumTracesTime(float64(wc)/freq, offsetsNS, traces...)
		if err != nil {
			t.Fatalf("SumTracesTime: %v", err)
		}
		requireOneClockMatch(t, cyc, tim)
	})
}

// FuzzGridLumpedOracle is the permanent equivalence oracle for the spatial
// PDN/thermal grids: for random trace shapes, a 1×1 grid must reproduce the
// lumped WorstDroopMV and SteadyTempC to ≤1e-9, and for a random rows×cols
// floorplan the per-node SumTracesTime aggregates must conserve the chip
// energy exactly (the per-node traces partition the chip trace). Wired into
// `make fuzz` and the CI fuzz smoke step.
func FuzzGridLumpedOracle(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0))
	f.Add(int64(7), uint8(4), uint8(3))
	f.Add(int64(42), uint8(1), uint8(5))
	f.Add(int64(-9), uint8(255), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, nTraces uint8, grid uint8) {
		n := int(nTraces%4) + 1
		rng := rand.New(rand.NewSource(seed))
		traces := make([]PowerTrace, n)
		for i := range traces {
			freq := 0.4 + 4*rng.Float64() // 0.4–4.4 GHz
			tr := PowerTrace{WindowCycles: 1 + rng.Intn(128), FrequencyGHz: freq}
			// Windows stay modest so the droop integration (2 ns step cap)
			// remains fast under the fuzzer.
			for j, points := 0, rng.Intn(24); j < points; j++ {
				cycles := uint64(1 + rng.Intn(tr.WindowCycles))
				e := rng.Float64() * 1000
				p := TracePoint{Cycles: cycles, EnergyPJ: e}
				p.PowerW = e / float64(cycles) * freq / 1000
				tr.Points = append(tr.Points, p)
			}
			traces[i] = tr
		}
		windowNS := 16 + rng.Float64()*64
		chip, err := SumTracesTime(windowNS, nil, traces...)
		if err != nil {
			t.Fatalf("chip aggregation: %v", err)
		}

		// 1×1 equivalence: the grid solvers are the lumped models.
		gs, gt := DefaultGridSupplyModel(1, 1), DefaultGridThermalModel(1, 1)
		droops, err := gs.NodeDroopsMV([]PowerTrace{chip})
		if err != nil {
			t.Fatalf("1x1 droop solve: %v", err)
		}
		if want := gs.Node.WorstDroopMV(chip); math.Abs(droops[0]-want) > 1e-9*math.Max(1, want) {
			t.Errorf("1x1 grid droop %.17g mV, lumped %.17g mV", droops[0], want)
		}
		temps, err := gt.NodeTempsC([]PowerTrace{chip})
		if err != nil {
			t.Fatalf("1x1 thermal solve: %v", err)
		}
		if want := gt.Node.SteadyTempC(chip); math.Abs(temps[0]-want) > 1e-9*math.Max(1, want) {
			t.Errorf("1x1 grid temp %.17g °C, lumped %.17g °C", temps[0], want)
		}

		// Per-node partition: a random floorplan's node aggregates must carry
		// exactly the chip energy between them.
		rows, cols := int(grid%3)+1, int(grid/3%3)+1
		nodeOf := make([]int, n)
		for i := range nodeOf {
			nodeOf[i] = rng.Intn(rows * cols)
		}
		var nodeEnergy float64
		for k := 0; k < rows*cols; k++ {
			var members []PowerTrace
			for i, tr := range traces {
				if nodeOf[i] == k {
					members = append(members, tr)
				}
			}
			if len(members) == 0 {
				continue
			}
			node, err := SumTracesTime(windowNS, nil, members...)
			if err != nil {
				t.Fatalf("node %d aggregation: %v", k, err)
			}
			nodeEnergy += node.TotalEnergyPJ()
		}
		if want := chip.TotalEnergyPJ(); math.Abs(nodeEnergy-want) > 1e-9*math.Max(1, want) {
			t.Errorf("node energies sum to %v pJ, chip trace holds %v pJ", nodeEnergy, want)
		}
	})
}

// FuzzSupplyReplayStop is the permanent equivalence oracle for the supply
// solvers' replay stop: for random grids up to 3×3 — random node traces in
// either domain, with zero-duration windows and idle nodes, random coupling,
// pass counts and damping — the lumped and grid droops must match the
// all-passes oracles bit for bit. Wired into `make fuzz` and the CI fuzz
// smoke step.
func FuzzSupplyReplayStop(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(6))
	f.Add(int64(7), uint8(4), uint8(2))
	f.Add(int64(42), uint8(8), uint8(1))
	f.Add(int64(-9), uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, grid uint8, passes uint8) {
		rng := rand.New(rand.NewSource(seed))
		g := DefaultGridSupplyModel(int(grid%3)+1, int(grid/3%3)+1)
		g.Node.Passes = int(passes%6) + 1
		// Heavier damping settles within short traces, so the stop fires
		// mid-pass as it does on full-length core traces.
		if rng.Intn(2) == 0 {
			g.Node.ResistanceOhm = 0.02 + 0.3*rng.Float64()
		}
		switch rng.Intn(3) {
		case 0:
			g.CouplingS = 0
		case 1:
			g.CouplingS = 20 * rng.Float64()
		}
		nodes := make([]PowerTrace, g.Nodes())
		for k := range nodes {
			if rng.Intn(5) == 0 {
				continue // idle node
			}
			freq := 0.4 + 4*rng.Float64() // 0.4–4.4 GHz
			tr := PowerTrace{WindowCycles: 1 + rng.Intn(128), FrequencyGHz: freq}
			timeDomain := rng.Intn(2) == 0
			if timeDomain {
				tr.WindowNS = float64(tr.WindowCycles) / freq
			}
			// Windows stay modest so the integration (2 ns step cap) remains
			// fast under the fuzzer; short periods repeat the load pattern.
			period := 1 + rng.Intn(8)
			base := make([]float64, period)
			for i := range base {
				base[i] = 3 * rng.Float64()
			}
			for j, points := 0, rng.Intn(200); j < points; j++ {
				p := TracePoint{PowerW: base[j%period]}
				switch {
				case rng.Intn(10) == 0:
					// zero-duration window
				case timeDomain:
					p.DurationNS = tr.WindowNS * (0.25 + rng.Float64())
				default:
					p.Cycles = uint64(1 + rng.Intn(tr.WindowCycles))
				}
				tr.Points = append(tr.Points, p)
			}
			nodes[k] = tr
		}
		requireDroopsMatchOracle(t, g, nodes)
	})
}
