package powersim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// requireLanesMatch asserts that the laned droop solve returns, for every
// lane, exactly the bits of that lane's single-trace WorstDroopMV — both
// from fresh buffers and from DroopLanes buffers a different solve (the
// same lanes in reverse) left dirty.
func requireLanesMatch(t *testing.T, models []SupplyModel, traces []PowerTrace) {
	t.Helper()
	var l, reused DroopLanes
	fresh := l.WorstDroopsMV(models, traces)
	reused.WorstDroopsMV(reversed(models), reversed(traces))
	again := reused.WorstDroopsMV(models, traces)
	for name, got := range map[string][]float64{"fresh": fresh, "reused": again} {
		if len(got) != len(traces) {
			t.Fatalf("%s buffers: %d droops for %d lanes", name, len(got), len(traces))
		}
		for k := range traces {
			want := models[k].WorstDroopMV(traces[k])
			if math.Float64bits(got[k]) != math.Float64bits(want) {
				t.Errorf("%s buffers, lane %d of %d: laned droop %.17g mV, WorstDroopMV %.17g mV",
					name, k, len(traces), got[k], want)
			}
		}
	}
}

// reversed returns a reversed copy of s.
func reversed[T any](s []T) []T {
	r := slices.Clone(s)
	slices.Reverse(r)
	return r
}

// TestWorstDroopsMVMatchesWorstDroopMV runs 1–9 lanes drawn from a pool of
// traces that exercise every branch of the single-trace solve — cycle and
// time domains on different clocks, partial tail windows, zero-length
// windows, empty, clockless and zero-weight traces, a NaN load — under
// models with different pass counts and damping (so the replay stop fires
// at different passes per lane). Every lane must match WorstDroopMV bit for
// bit.
func TestWorstDroopsMVMatchesWorstDroopMV(t *testing.T) {
	resonant := squareTrace(96, 2, 0.2, 1.8)
	slowClock := flatTraceAt(40, 48, 1.2, 0.7)
	partial := squareTrace(50, 3, 0.4, 1.6)
	partial.Points[len(partial.Points)-1].Cycles = 17 // partial tail window
	mixed, err := SumTracesTime(32, []float64{0, 7.5},
		flatTraceAt(40, 64, 2.0, 0.8), squareTrace(50, 3, 0.1, 1.5))
	if err != nil {
		t.Fatal(err)
	}
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
	zeroWeight := PowerTrace{WindowCycles: 64, FrequencyGHz: 2,
		Points: []TracePoint{{PowerW: 1.5}, {PowerW: 0.5}}}
	clockless := PowerTrace{WindowCycles: 64, Points: flatTrace(8, 1).Points}
	idle := PowerTrace{WindowCycles: 64, FrequencyGHz: 2}
	pool := []PowerTrace{resonant, mixed, PowerTrace{}, slowClock, gaps, nanLoad,
		timeGaps, zeroWeight, partial, clockless, idle, flatTrace(20, 1.0)}

	damped := DefaultSupplyModel()
	damped.ResistanceOhm = 0.3
	onePass := DefaultSupplyModel()
	onePass.Passes = 1
	threePass := damped
	threePass.Passes = 3
	noPass := DefaultSupplyModel()
	noPass.Passes = 0 // invalid, but the solve still reports the warm start
	lowVdd := DefaultSupplyModel()
	lowVdd.VddV = 0.8
	models := []SupplyModel{DefaultSupplyModel(), damped, onePass, threePass, noPass, lowVdd}

	for lanes := 1; lanes <= 9; lanes++ {
		for offset := 0; offset < len(pool); offset += 3 {
			ms := make([]SupplyModel, lanes)
			ts := make([]PowerTrace, lanes)
			for k := range ts {
				ts[k] = pool[(offset+k)%len(pool)]
				ms[k] = models[(offset+2*k)%len(models)]
			}
			t.Run(fmt.Sprintf("%d-lanes-from-%d", lanes, offset), func(t *testing.T) {
				requireLanesMatch(t, ms, ts)
			})
		}
	}
	var l DroopLanes
	if got := l.WorstDroopsMV(nil, nil); len(got) != 0 {
		t.Errorf("no lanes gave %d droops", len(got))
	}
}

// TestWorstDroopsMVRejectsMismatchedLanes pins the length check.
func TestWorstDroopsMVRejectsMismatchedLanes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("one model for two traces should panic")
		}
	}()
	var l DroopLanes
	l.WorstDroopsMV([]SupplyModel{DefaultSupplyModel()}, []PowerTrace{flatTrace(4, 1), flatTrace(4, 2)})
}

// randomDroopTrace draws a trace for the droop fuzz targets: either domain
// on a random clock, short repeating load patterns (so the replay stop can
// fire), zero-length windows, and occasionally an empty, zero-weight or
// NaN-loaded trace.
func randomDroopTrace(rng *rand.Rand) PowerTrace {
	freq := 0.4 + 4*rng.Float64() // 0.4–4.4 GHz
	tr := PowerTrace{WindowCycles: 1 + rng.Intn(128), FrequencyGHz: freq}
	switch rng.Intn(8) {
	case 0:
		return PowerTrace{}
	case 1:
		// Zero weight: samples, but none spans any time.
		for j := rng.Intn(5); j >= 0; j-- {
			tr.Points = append(tr.Points, TracePoint{PowerW: 3 * rng.Float64()})
		}
		return tr
	}
	timeDomain := rng.Intn(2) == 0
	if timeDomain {
		tr.WindowNS = float64(tr.WindowCycles) / freq
	}
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
	if len(tr.Points) > 0 && rng.Intn(12) == 0 {
		tr.Points[rng.Intn(len(tr.Points))].PowerW = math.NaN()
	}
	return tr
}

// FuzzWorstDroopsLanes checks the laned droop solve against WorstDroopMV:
// for 1–9 random lanes — random traces in either domain and on mixed
// clocks, with random pass counts, damping and supply voltage per lane —
// every lane must match the single-trace solve bit for bit. Wired into
// `make fuzz` and the CI fuzz smoke step.
func FuzzWorstDroopsLanes(f *testing.F) {
	f.Add(int64(1), uint8(4))
	f.Add(int64(7), uint8(1))
	f.Add(int64(42), uint8(5))
	f.Add(int64(-3), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, lanes uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(lanes%9) + 1
		models := make([]SupplyModel, n)
		traces := make([]PowerTrace, n)
		for k := range traces {
			s := DefaultSupplyModel()
			s.Passes = 1 + rng.Intn(6)
			if rng.Intn(2) == 0 {
				s.ResistanceOhm = 0.02 + 0.3*rng.Float64()
			}
			if rng.Intn(4) == 0 {
				s.VddV = 0.6 + 0.6*rng.Float64()
			}
			models[k] = s
			traces[k] = randomDroopTrace(rng)
		}
		requireLanesMatch(t, models, traces)
	})
}
