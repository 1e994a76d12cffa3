package powersim

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether two float slices hold the same bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameTraceBits reports whether two traces are the same bits.
func sameTraceBits(a, b PowerTrace) bool {
	if a.WindowCycles != b.WindowCycles || len(a.Points) != len(b.Points) ||
		math.Float64bits(a.FrequencyGHz) != math.Float64bits(b.FrequencyGHz) ||
		math.Float64bits(a.WindowNS) != math.Float64bits(b.WindowNS) {
		return false
	}
	for i, p := range a.Points {
		q := b.Points[i]
		if p.Cycles != q.Cycles || math.Float64bits(p.DurationNS) != math.Float64bits(q.DurationNS) ||
			math.Float64bits(p.EnergyPJ) != math.Float64bits(q.EnergyPJ) ||
			math.Float64bits(p.PowerW) != math.Float64bits(q.PowerW) {
			return false
		}
	}
	return true
}

// requireScratchSolvesMatch solves the grids on s's buffers, whatever an
// earlier solve left in them, and requires the droops and temperatures of
// fresh zero-value calls bit for bit.
func requireScratchSolvesMatch(t *testing.T, s *GridScratch, gs GridSupplyModel, gt GridThermalModel, nodes []PowerTrace) {
	t.Helper()
	droops, temps, err := s.Solve(gs, gt, nodes)
	if err != nil {
		t.Fatalf("reused %dx%d grid solves: %v", gs.Rows, gs.Cols, err)
	}
	wantDroops, err := gs.NodeDroopsMV(nodes)
	if err != nil {
		t.Fatal(err)
	}
	wantTemps, err := gt.NodeTempsC(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(droops, wantDroops) {
		t.Errorf("%dx%d grid: reused droops %v, fresh %v", gs.Rows, gs.Cols, droops, wantDroops)
	}
	if !sameBits(temps, wantTemps) {
		t.Errorf("%dx%d grid: reused temperatures %v, fresh %v", gt.Rows, gt.Cols, temps, wantTemps)
	}
}

// randomEnergyTrace draws a cycle-domain trace with energy in every window
// for the aggregation checks: a random clock, window length and point
// count (possibly none).
func randomEnergyTrace(rng *rand.Rand, maxPoints int) PowerTrace {
	freq := 0.4 + 4*rng.Float64() // 0.4–4.4 GHz
	tr := PowerTrace{WindowCycles: 1 + rng.Intn(128), FrequencyGHz: freq}
	for j, points := 0, rng.Intn(maxPoints+1); j < points; j++ {
		cycles := uint64(1 + rng.Intn(tr.WindowCycles))
		e := rng.Float64() * 1000
		tr.Points = append(tr.Points, TracePoint{Cycles: cycles, EnergyPJ: e, PowerW: e / float64(cycles) * freq / 1000})
	}
	return tr
}

// FuzzGridScratchReuse reuses one GridScratch and one SumTracesTimeInto
// buffer across a sequence of random inputs whose sizes grow and shrink —
// window counts, 1×1 to 3×3 grids, idle and empty nodes, either trace
// domain — and requires every reused result to equal a fresh zero-value
// call bit for bit. Wired into `make fuzz` and the CI fuzz smoke step.
func FuzzGridScratchReuse(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(7), uint8(5))
	f.Add(int64(42), uint8(0))
	f.Add(int64(-9), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, rounds uint8) {
		rng := rand.New(rand.NewSource(seed))
		var s GridScratch
		var buf []TracePoint
		for r := 0; r < int(rounds%6)+2; r++ {
			rows, cols := 1+rng.Intn(3), 1+rng.Intn(3)
			gs, gt := defaultGridSupply(rows, cols), defaultGridThermal(rows, cols)
			nodes := make([]PowerTrace, rows*cols)
			for k := range nodes {
				if rng.Intn(4) != 0 {
					nodes[k] = randomDroopTrace(rng)
				}
			}
			requireScratchSolvesMatch(t, &s, gs, gt, nodes)

			traces := make([]PowerTrace, 1+rng.Intn(4))
			offsets := make([]float64, len(traces))
			for i := range traces {
				traces[i] = randomEnergyTrace(rng, 60)
				offsets[i] = 200 * rng.Float64()
			}
			if rng.Intn(2) == 0 {
				offsets = nil
			}
			windowNS := 4 + 60*rng.Float64()
			got, err := SumTracesTimeInto(buf, windowNS, offsets, traces...)
			if err != nil {
				t.Fatalf("reused aggregation: %v", err)
			}
			want, err := SumTracesTime(windowNS, offsets, traces...)
			if err != nil {
				t.Fatal(err)
			}
			if !sameTraceBits(got, want) {
				t.Errorf("round %d: reused aggregation of %d traces differs from a fresh one", r, len(traces))
			}
			buf = got.Points
		}
	})
}

// TestSumTracesTimeIntoKeepsBufferWhenEmpty pins that an aggregation with
// nothing to sum still hands the caller's storage back, so a reused buffer
// survives an idle evaluation.
func TestSumTracesTimeIntoKeepsBufferWhenEmpty(t *testing.T) {
	buf := make([]TracePoint, 0, 8)
	got, err := SumTracesTimeInto(buf, 10, nil, PowerTrace{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Empty() || cap(got.Points) != cap(buf) {
		t.Errorf("empty aggregation returned %d points of capacity %d, want 0 of the buffer's %d", len(got.Points), cap(got.Points), cap(buf))
	}
	if fresh, _ := SumTracesTime(10, nil, PowerTrace{}); fresh.Points != nil {
		t.Errorf("fresh empty aggregation allocated %d points", cap(fresh.Points))
	}
}

// The allocation pins of the chip's per-evaluation solves: once warm, the
// aggregation and the grid solves allocate nothing. The counts are not
// meaningful under the race detector, so the pins skip there; CI runs them
// in a separate non-race step.

func TestAllocsSumTracesTimeInto(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(1))
	traces := []PowerTrace{randomEnergyTrace(rng, 200), randomEnergyTrace(rng, 200), randomEnergyTrace(rng, 200)}
	offsets := []float64{0, 40, 80}
	sum, err := SumTracesTimeInto(nil, 32, offsets, traces...)
	if err != nil {
		t.Fatal(err)
	}
	buf := sum.Points
	got := testing.AllocsPerRun(50, func() {
		if _, err := SumTracesTimeInto(buf, 32, offsets, traces...); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("warm SumTracesTimeInto allocates %v times, want 0", got)
	}
}

func TestAllocsGridScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// 2×2 takes the solves in registers, 2×3 the slice loops.
	for _, dims := range [][2]int{{2, 2}, {2, 3}} {
		rng := rand.New(rand.NewSource(1))
		nodes := make([]PowerTrace, dims[0]*dims[1])
		for k := range nodes {
			if k != 1 { // node 1 idles
				nodes[k] = randomEnergyTrace(rng, 200)
			}
		}
		gs, gt := defaultGridSupply(dims[0], dims[1]), defaultGridThermal(dims[0], dims[1])
		var s GridScratch
		solve := func() {
			if _, _, err := s.Solve(gs, gt, nodes); err != nil {
				t.Fatal(err)
			}
		}
		solve()
		if got := testing.AllocsPerRun(20, solve); got != 0 {
			t.Errorf("warm %dx%d GridScratch droop and thermal solves allocate %v times, want 0", dims[0], dims[1], got)
		}
	}
}
