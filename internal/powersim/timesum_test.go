package powersim

import (
	"math"
	"testing"
)

// flatTraceAt builds a constant-power trace at an arbitrary clock and window
// length.
func flatTraceAt(n, windowCycles int, freqGHz, powerW float64) PowerTrace {
	t := PowerTrace{WindowCycles: windowCycles, FrequencyGHz: freqGHz}
	for i := 0; i < n; i++ {
		e := powerW * 1000 * float64(windowCycles) / freqGHz
		t.Points = append(t.Points, TracePoint{Cycles: uint64(windowCycles), EnergyPJ: e, PowerW: powerW})
	}
	return t
}

func TestSumTracesTimeConservesEnergyMixedFrequencies(t *testing.T) {
	a := flatTraceAt(5, 64, 2.0, 1.0)
	b := flatTraceAt(7, 48, 1.2, 0.5)
	c := flatTraceAt(3, 32, 3.3, 2.0)
	sum, err := SumTracesTime(53.5, []float64{0, 10.25, 100}, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.TimeDomain() {
		t.Fatal("time-domain sum should report TimeDomain")
	}
	if sum.WindowNS != 53.5 || sum.WindowCycles != 0 || sum.FrequencyGHz != 0 {
		t.Errorf("sum carries WindowNS=%v WindowCycles=%d FrequencyGHz=%v, want 53.5/0/0",
			sum.WindowNS, sum.WindowCycles, sum.FrequencyGHz)
	}
	want := energyPJ(a) + energyPJ(b) + energyPJ(c)
	got := energyPJ(sum)
	if diff := math.Abs(got - want); diff > 1e-9*want {
		t.Errorf("summed energy %v pJ, want %v pJ (conservation to 1e-9)", got, want)
	}
	// The grid spans the longest skewed trace: b runs 7*48/1.2 = 280 ns from
	// 10.25 ns.
	wantSpan := 10.25 + 7*48/1.2
	if span := durationNS(sum); math.Abs(span-wantSpan) > 1e-9*wantSpan {
		t.Errorf("summed span %v ns, want %v ns", span, wantSpan)
	}
}

func TestSumTracesTimeOverlappingPowersAdd(t *testing.T) {
	// 1 W at 2 GHz and 0.5 W at 1 GHz, both spanning exactly 128 ns: every
	// grid window draws the combined 1.5 W.
	a := flatTraceAt(4, 64, 2.0, 1.0)
	b := flatTraceAt(2, 64, 1.0, 0.5)
	sum, err := SumTracesTime(32, nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Points) != 4 {
		t.Fatalf("summed trace has %d windows, want 4", len(sum.Points))
	}
	for i, p := range sum.Points {
		if math.Abs(p.PowerW-1.5) > 1e-9 {
			t.Errorf("window %d power %v W, want 1.5 W", i, p.PowerW)
		}
		if math.Abs(p.DurationNS-32) > 1e-9 {
			t.Errorf("window %d spans %v ns, want 32 ns", i, p.DurationNS)
		}
	}
	if avg := sum.AvgPowerW(); math.Abs(avg-1.5) > 1e-9 {
		t.Errorf("average power %v W, want 1.5 W", avg)
	}
}

func TestSumTracesTimeSkipsEmptyTraces(t *testing.T) {
	a := flatTraceAt(4, 64, 2.0, 1.0) // 128 ns
	empty := PowerTrace{WindowCycles: 64, FrequencyGHz: 2}
	sum, err := SumTracesTime(32, []float64{0, 1e6}, a, empty)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Points) != 4 {
		t.Errorf("an empty trace's skew inflated the grid to %d windows, want 4", len(sum.Points))
	}
	if avg, want := sum.AvgPowerW(), 1.0; math.Abs(avg-want) > 1e-9 {
		t.Errorf("average power %v dragged down by phantom windows, want %v", avg, want)
	}
}

func TestSumTracesTimeRejectsBadInputs(t *testing.T) {
	a := flatTraceAt(2, 64, 2.0, 1.0)
	if _, err := SumTracesTime(0, nil, a); err == nil {
		t.Error("non-positive window length should be rejected")
	}
	if _, err := SumTracesTime(math.NaN(), nil, a); err == nil {
		t.Error("NaN window length should be rejected")
	}
	if _, err := SumTracesTime(32, nil); err == nil {
		t.Error("empty trace list should be rejected")
	}
	if _, err := SumTracesTime(32, []float64{1}, a, a); err == nil {
		t.Error("offset/trace count mismatch should be rejected")
	}
	if _, err := SumTracesTime(32, []float64{0, -1}, a, a); err == nil {
		t.Error("negative offset should be rejected")
	}
	clockless := a
	clockless.FrequencyGHz = 0
	if _, err := SumTracesTime(32, nil, clockless); err == nil {
		t.Error("cycle windows without a clock should be rejected")
	}
}

// TestSumTracesTimeValidatesOffsetsOfEmptyTraces is the regression pin for
// the offset-validation hole: offsets used to be checked only inside the
// non-empty-trace branch of the span pass, so a bad offset paired with an
// empty trace sailed through validation and took effect silently if the
// trace ever gained points.
func TestSumTracesTimeValidatesOffsetsOfEmptyTraces(t *testing.T) {
	full := flatTraceAt(4, 64, 2.0, 1.0)
	empty := PowerTrace{WindowCycles: 64, FrequencyGHz: 2}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := SumTracesTime(32, []float64{0, bad}, full, empty); err == nil {
			t.Errorf("offset %v on an empty trace should be rejected", bad)
		}
	}
	// A valid offset on an empty trace stays legal (and inert).
	if _, err := SumTracesTime(32, []float64{0, 1e6}, full, empty); err != nil {
		t.Errorf("valid offset on an empty trace should be accepted: %v", err)
	}
}

// TestSteadyTempLongWindowNoOvershoot is the regression pin for the thermal
// integrator: a window with dt > Rth·Cth used to take one giant forward-Euler
// step that overshot the RC response (and, past 2τ, oscillated divergently),
// reporting a peak temperature above what the trace can physically produce.
func TestSteadyTempLongWindowNoOvershoot(t *testing.T) {
	th := DefaultThermalModel()
	// Two 0.2 s windows (4e8 cycles at 2 GHz) alternating 2 W and 0 W; with
	// τ = Rth·Cth = 56 ms the raw step is ~3.6τ.
	tr := PowerTrace{WindowCycles: 400000000, FrequencyGHz: 2}
	for i := 0; i < 4; i++ {
		p := TracePoint{Cycles: 400000000}
		if i%2 == 0 {
			p.PowerW = 2
			p.EnergyPJ = p.PowerW * 1000 * float64(p.Cycles) / tr.FrequencyGHz
		}
		tr.Points = append(tr.Points, p)
	}
	got := th.SteadyTempC(tr)
	// The hotspot can never exceed the steady state of the peak power.
	bound := th.AmbientC + th.RthCPerW*2
	if got > bound+0.5 {
		t.Errorf("peak temperature %v °C overshoots the physical bound %v °C", got, bound)
	}
	if got <= th.AmbientC {
		t.Errorf("peak temperature %v °C should be above ambient %v °C", got, th.AmbientC)
	}
}

func TestThermalModelRequiresStepCap(t *testing.T) {
	bad := DefaultThermalModel()
	bad.MaxStepS = 0
	if err := bad.Validate(); err == nil {
		t.Error("missing integration step cap should be rejected")
	}
}

// TestTransientAnalysesAgreeAcrossDomains runs the supply and thermal models
// over the same waveform in its cycle-domain and time-domain representations;
// the physics must not depend on the representation.
func TestTransientAnalysesAgreeAcrossDomains(t *testing.T) {
	cyc := squareTrace(128, 2, 0.2, 1.8)
	tim := PowerTrace{WindowNS: 32}
	for i := range cyc.Points {
		tim.Points = append(tim.Points, TracePoint{
			DurationNS: cyc.PointDurationNS(i),
			EnergyPJ:   cyc.Points[i].EnergyPJ,
			PowerW:     cyc.Points[i].PowerW,
		})
	}
	s := DefaultSupplyModel()
	dc, dt := s.WorstDroopMV(cyc), s.WorstDroopMV(tim)
	if math.Abs(dc-dt) > 1e-9*dc {
		t.Errorf("droop differs across domains: cycle %v mV, time %v mV", dc, dt)
	}
	th := DefaultThermalModel()
	tc, tt := th.SteadyTempC(cyc), th.SteadyTempC(tim)
	if math.Abs(tc-tt) > 1e-9*tc {
		t.Errorf("temperature differs across domains: cycle %v °C, time %v °C", tc, tt)
	}
	if ac, at := cyc.AvgPowerW(), tim.AvgPowerW(); math.Abs(ac-at) > 1e-9*ac {
		t.Errorf("average power differs across domains: cycle %v W, time %v W", ac, at)
	}
}
