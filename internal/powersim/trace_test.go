package powersim

import (
	"math"
	"strings"
	"testing"

	"micrograd/internal/cpusim"
	"micrograd/internal/isa"
)

// energyPJ is the trace's total dissipated energy: the quantity summing
// traces must conserve.
func energyPJ(t PowerTrace) float64 {
	total := 0.0
	for _, p := range t.Points {
		total += p.EnergyPJ
	}
	return total
}

// durationNS is the trace's total time span in nanoseconds.
func durationNS(t PowerTrace) float64 {
	total := 0.0
	for i := range t.Points {
		total += t.PointDurationNS(i)
	}
	return total
}

// flatTrace builds a synthetic trace of constant power.
func flatTrace(n int, powerW float64) PowerTrace {
	t := PowerTrace{WindowCycles: 64, FrequencyGHz: 2}
	for i := 0; i < n; i++ {
		// energy pJ for the requested power: P = e/cycles*GHz/1000.
		e := powerW * 1000 * 64 / 2
		t.Points = append(t.Points, TracePoint{Cycles: 64, EnergyPJ: e, PowerW: powerW})
	}
	return t
}

// squareTrace alternates between hi and lo power with the given half-period
// (in windows).
func squareTrace(n, halfPeriod int, lo, hi float64) PowerTrace {
	t := flatTrace(n, lo)
	for i := range t.Points {
		if (i/halfPeriod)%2 == 1 {
			e := hi * 1000 * 64 / 2
			t.Points[i] = TracePoint{Cycles: 64, EnergyPJ: e, PowerW: hi}
		}
	}
	return t
}

func TestTraceFromResult(t *testing.T) {
	coeff := SmallCoreCoefficients()
	m, err := New(coeff)
	if err != nil {
		t.Fatal(err)
	}
	res := cpusim.Result{
		Instructions: 300,
		Cycles:       192,
		Config:       cpusim.Config{FrequencyGHz: 2, WindowCycles: 64},
	}
	w := cpusim.Window{Cycles: 64, Instructions: 100}
	w.ClassCounts[isa.ClassInteger] = 90
	w.ClassCounts[isa.ClassFloat] = 10
	res.Windows = []cpusim.Window{w, w, w}

	tr := m.Trace(res)
	if len(tr.Points) != 3 {
		t.Fatalf("trace has %d points, want 3", len(tr.Points))
	}
	wantE := 100*coeff.FrontEndPJ + 90*coeff.ClassPJ[isa.ClassInteger] +
		10*coeff.ClassPJ[isa.ClassFloat] + 64*coeff.ClockPJPerCycle
	if got := tr.Points[0].EnergyPJ; math.Abs(got-wantE) > 1e-9 {
		t.Errorf("window energy %v, want %v", got, wantE)
	}
	wantP := wantE / 64 * 2 / 1000
	if got := tr.Points[0].PowerW; math.Abs(got-wantP) > 1e-12 {
		t.Errorf("window power %v, want %v", got, wantP)
	}
	if avg := tr.AvgPowerW(); math.Abs(avg-wantP) > 1e-12 {
		t.Errorf("flat trace average %v, want %v", avg, wantP)
	}
}

func TestTraceNopsAreFrontEndFree(t *testing.T) {
	m, err := New(SmallCoreCoefficients())
	if err != nil {
		t.Fatal(err)
	}
	active := cpusim.Window{Cycles: 64, Instructions: 64}
	active.ClassCounts[isa.ClassInteger] = 64
	idle := cpusim.Window{Cycles: 64, Instructions: 64}
	idle.ClassCounts[isa.ClassNop] = 64
	res := cpusim.Result{
		Instructions: 128, Cycles: 128,
		Windows: []cpusim.Window{active, idle},
		Config:  cpusim.Config{FrequencyGHz: 2, WindowCycles: 64},
	}
	tr := m.Trace(res)
	if tr.Points[1].PowerW >= tr.Points[0].PowerW {
		t.Errorf("NOP window power %v should be far below active window %v",
			tr.Points[1].PowerW, tr.Points[0].PowerW)
	}
}

func TestMaxStepWPerCycle(t *testing.T) {
	tr := squareTrace(8, 2, 0.2, 1.0)
	want := (1.0 - 0.2) / 64
	if got := tr.MaxStepWPerCycle(); math.Abs(got-want) > 1e-12 {
		t.Errorf("max step %v, want %v", got, want)
	}
	if got := flatTrace(8, 0.5).MaxStepWPerCycle(); got != 0 {
		t.Errorf("flat trace should have zero step, got %v", got)
	}
	if got := (PowerTrace{}).MaxStepWPerCycle(); got != 0 {
		t.Errorf("empty trace should have zero step, got %v", got)
	}
}

func TestMaxStepExcludesPartialTailWindow(t *testing.T) {
	// A run rarely ends on a window boundary; the short tail window averages
	// its energy over few cycles and would fake a huge dI/dt step. The metric
	// must skip steps into (and out of) partial windows.
	tr := flatTrace(6, 0.5)
	tail := TracePoint{Cycles: 4, EnergyPJ: 0.5 * 1000 * 4 / 2 * 10, PowerW: 5.0}
	tr.Points = append(tr.Points, tail)
	if got := tr.MaxStepWPerCycle(); got != 0 {
		t.Errorf("partial tail window leaked into the step metric: %v", got)
	}
	// A real step between full windows still registers with the tail present.
	tr2 := squareTrace(6, 3, 0.2, 1.0)
	tr2.Points = append(tr2.Points, tail)
	want := (1.0 - 0.2) / 64
	if got := tr2.MaxStepWPerCycle(); math.Abs(got-want) > 1e-12 {
		t.Errorf("max step %v, want %v (tail must not drown full-window steps)", got, want)
	}
}

func TestMaxStepWPerNS(t *testing.T) {
	// Cycle domain: a 64-cycle window at 2 GHz spans 32 ns, so the per-ns
	// step is the per-cycle step times the clock.
	tr := squareTrace(8, 2, 0.2, 1.0)
	want := (1.0 - 0.2) / 32
	if got := tr.MaxStepWPerNS(); math.Abs(got-want) > 1e-12 {
		t.Errorf("cycle-domain max step %v W/ns, want %v", got, want)
	}
	if perCyc := tr.MaxStepWPerCycle(); math.Abs(tr.MaxStepWPerNS()-perCyc*tr.FrequencyGHz) > 1e-12 {
		t.Errorf("per-ns step %v should equal per-cycle step %v x clock", tr.MaxStepWPerNS(), perCyc)
	}
	// Time domain: the same waveform on the nanosecond grid keeps the metric
	// (MaxStepWPerCycle reports 0 there — the gap this metric closes).
	tim, err := SumTracesTime(32, []float64{0}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !tim.TimeDomain() {
		t.Fatal("resampled trace should be time-domain")
	}
	if got := tim.MaxStepWPerCycle(); got != 0 {
		t.Errorf("time-domain trace has no per-cycle step, got %v", got)
	}
	if got := tim.MaxStepWPerNS(); math.Abs(got-want) > 1e-9*want {
		t.Errorf("time-domain max step %v W/ns, want %v", got, want)
	}
	if got := (PowerTrace{}).MaxStepWPerNS(); got != 0 {
		t.Errorf("empty trace should have zero step, got %v", got)
	}
}

func TestMaxStepWPerNSExcludesPartialTailWindow(t *testing.T) {
	// A short tail window averages its energy over a short span and would
	// fake a huge dI/dt; the time-domain metric must skip it like the
	// cycle-domain one does.
	tr := flatTrace(6, 0.5)
	tail := TracePoint{Cycles: 4, EnergyPJ: 0.5 * 1000 * 4 / 2 * 10, PowerW: 5.0}
	tr.Points = append(tr.Points, tail)
	if got := tr.MaxStepWPerNS(); got != 0 {
		t.Errorf("partial tail window leaked into the per-ns step metric: %v", got)
	}
	tim, err := SumTracesTime(48, []float64{0}, squareTrace(8, 2, 0.2, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	// 8 x 32 ns = 256 ns on a 48 ns grid: the 16 ns tail window is partial.
	if last := tim.Points[len(tim.Points)-1].DurationNS; math.Abs(last-16) > 1e-9 {
		t.Fatalf("tail window spans %v ns, want 16", last)
	}
	full, err := SumTracesTime(32, []float64{0}, squareTrace(8, 2, 0.2, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if tim.MaxStepWPerNS() <= 0 || full.MaxStepWPerNS() <= 0 {
		t.Error("square waves should register a positive per-ns step")
	}
}

func TestResampleShiftsTrace(t *testing.T) {
	a := flatTrace(2, 1.0)
	shifted, err := SumTracesTime(32, []float64{32}, a) // one 64-cycle window at 2 GHz = 32 ns
	if err != nil {
		t.Fatal(err)
	}
	if len(shifted.Points) != 3 {
		t.Fatalf("shifted trace has %d windows, want 3", len(shifted.Points))
	}
	if shifted.Points[0].EnergyPJ != 0 {
		t.Errorf("leading offset window should be idle, has %v pJ", shifted.Points[0].EnergyPJ)
	}
	if got, want := shifted.Points[1].EnergyPJ, a.Points[0].EnergyPJ; math.Abs(got-want) > 1e-9*want {
		t.Errorf("shifted window 1 energy %v, want %v", got, want)
	}
}

// TestResampleTimeDomainConservesEnergy is the regression pin for the
// time-domain resampling hole: the old cycle-grid implementation summed
// p.Cycles — all zero on a time-domain trace — and silently returned an
// empty trace. Resampling one trace through SumTracesTime must work in both
// domains and conserve energy.
func TestResampleTimeDomainConservesEnergy(t *testing.T) {
	a := flatTraceAt(5, 64, 2.0, 1.0)
	b := flatTraceAt(7, 48, 1.2, 0.5)
	tim, err := SumTracesTime(26.5, nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !tim.TimeDomain() || tim.Empty() {
		t.Fatal("fixture should be a non-empty time-domain trace")
	}
	re, err := SumTracesTime(40.25, []float64{13.5}, tim)
	if err != nil {
		t.Fatal(err)
	}
	if re.Empty() {
		t.Fatal("resampled time-domain trace is empty (the old silent failure)")
	}
	want := energyPJ(tim)
	if got := energyPJ(re); math.Abs(got-want) > 1e-9*want {
		t.Errorf("resampled energy %v pJ, want %v pJ (conservation to 1e-9)", got, want)
	}
	wantSpan := 13.5 + durationNS(tim)
	if span := durationNS(re); math.Abs(span-wantSpan) > 1e-9*wantSpan {
		t.Errorf("resampled span %v ns, want %v ns", span, wantSpan)
	}
	if _, err := SumTracesTime(0, []float64{0}, tim); err == nil {
		t.Error("non-positive resample window should be rejected")
	}
	if _, err := SumTracesTime(32, []float64{-1}, tim); err == nil {
		t.Error("negative resample offset should be rejected")
	}
}

func TestTrimWarmup(t *testing.T) {
	tr := flatTrace(10, 0.5)
	if got := tr.TrimWarmup(3); len(got.Points) != 7 {
		t.Errorf("trimmed to %d points, want 7", len(got.Points))
	}
	if got := tr.TrimWarmup(0); len(got.Points) != 10 {
		t.Errorf("zero trim changed the trace to %d points", len(got.Points))
	}
	if got := tr.TrimWarmup(100); len(got.Points) != 0 {
		t.Errorf("over-trim should empty the trace, got %d points", len(got.Points))
	}
}

func TestSupplyModelValidation(t *testing.T) {
	if err := DefaultSupplyModel().Validate(); err != nil {
		t.Fatalf("default supply model invalid: %v", err)
	}
	bad := DefaultSupplyModel()
	bad.ResistanceOhm = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero resistance should be rejected")
	}
	bad = DefaultSupplyModel()
	bad.Passes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero passes should be rejected")
	}
}

func TestConstantLoadDroopIsIRDrop(t *testing.T) {
	s := DefaultSupplyModel()
	const powerW = 1.0
	tr := flatTrace(64, powerW)
	droop := s.WorstDroopMV(tr)
	ir := powerW / s.VddV * s.ResistanceOhm * 1000
	if math.Abs(droop-ir) > 0.05*ir+0.5 {
		t.Errorf("constant-load droop %v mV should be close to the IR drop %v mV", droop, ir)
	}
}

func TestResonantSquareWaveBeatsConstant(t *testing.T) {
	s := DefaultSupplyModel()
	// Resonant period = 2π√(LC) seconds; at 2 GHz with 64-cycle windows a
	// window is 32 ns.
	periodWindows := 2 * math.Pi * math.Sqrt(s.InductanceH*s.CapacitanceF) / 32e-9
	half := int(math.Round(periodWindows / 2))
	if half < 1 {
		half = 1
	}
	square := squareTrace(256, half, 0.2, 1.8) // average 1.0 W
	constant := flatTrace(256, 1.8)            // even at the square's PEAK power
	dSquare := s.WorstDroopMV(square)
	dConst := s.WorstDroopMV(constant)
	if dSquare <= dConst {
		t.Errorf("resonant square wave droop %v mV should exceed constant full-power droop %v mV",
			dSquare, dConst)
	}
}

func TestOffResonanceIsAttenuated(t *testing.T) {
	s := DefaultSupplyModel()
	periodWindows := 2 * math.Pi * math.Sqrt(s.InductanceH*s.CapacitanceF) / 32e-9
	resHalf := int(math.Round(periodWindows / 2))
	if resHalf < 2 {
		t.Skip("resonant half-period too short for an off-resonance comparison")
	}
	onRes := s.WorstDroopMV(squareTrace(256, resHalf, 0.2, 1.8))
	offRes := s.WorstDroopMV(squareTrace(256, resHalf*8, 0.2, 1.8))
	if onRes <= offRes {
		t.Errorf("on-resonance droop %v mV should exceed far-off-resonance droop %v mV", onRes, offRes)
	}
}

func TestEmptyTraceDroopIsZero(t *testing.T) {
	if got := DefaultSupplyModel().WorstDroopMV(PowerTrace{}); got != 0 {
		t.Errorf("empty trace droop %v, want 0", got)
	}
}

func TestThermalModelValidation(t *testing.T) {
	if err := DefaultThermalModel().Validate(); err != nil {
		t.Fatalf("default thermal model invalid: %v", err)
	}
	bad := DefaultThermalModel()
	bad.RthCPerW = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero thermal resistance should be rejected")
	}
}

func TestSteadyTempTracksAveragePower(t *testing.T) {
	th := DefaultThermalModel()
	const powerW = 1.5
	tr := flatTrace(64, powerW)
	got := th.SteadyTempC(tr)
	want := th.AmbientC + th.RthCPerW*powerW
	if math.Abs(got-want) > 0.5 {
		t.Errorf("steady temperature %v °C, want about %v °C", got, want)
	}
	if cold := th.SteadyTempC(PowerTrace{}); cold != th.AmbientC {
		t.Errorf("empty trace temperature %v, want ambient %v", cold, th.AmbientC)
	}
	hotter := th.SteadyTempC(flatTrace(64, 2*powerW))
	if hotter <= got {
		t.Error("doubling power should raise the steady temperature")
	}
}

func TestTraceWriteCSV(t *testing.T) {
	var b strings.Builder
	tr := squareTrace(4, 1, 0.2, 1.0)
	if err := tr.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("CSV has %d lines, want header + 4 rows", len(lines))
	}
	if lines[0] != "window,cycles,time_ns,duration_ns,energy_pj,power_w" {
		t.Errorf("unexpected CSV header %q", lines[0])
	}
	// time_ns is the cumulative window *end*; duration_ns the window's span.
	if !strings.HasPrefix(lines[1], "0,64,32.00,32.000,") {
		t.Errorf("unexpected first row %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "1,64,64.00,32.000,") {
		t.Errorf("unexpected second row %q", lines[2])
	}
}

// TestTraceWriteCSVTimeDomain pins the disambiguated time-domain dump: rows
// carry cycles=0 but a real duration_ns, so heterogeneous chip traces are no
// longer ambiguous.
func TestTraceWriteCSVTimeDomain(t *testing.T) {
	tim, err := SumTracesTime(24, []float64{0}, flatTrace(3, 1.0)) // 96 ns of trace on a 24 ns grid
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tim.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("CSV has %d lines, want header + 4 rows", len(lines))
	}
	if !strings.HasPrefix(lines[1], "0,0,24.00,24.000,") {
		t.Errorf("unexpected first time-domain row %q", lines[1])
	}
	if !strings.HasPrefix(lines[4], "3,0,96.00,24.000,") {
		t.Errorf("unexpected last time-domain row %q", lines[4])
	}
}
