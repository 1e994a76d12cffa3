// Transient power analyses built on the per-window activity counts that
// internal/cpusim records: a windowed power trace, the dI/dt step metric, a
// second-order RLC supply-network model producing worst-case voltage droop,
// and a lumped thermal-RC model producing the steady-state hotspot
// temperature. Average power (power.go) hides exactly the behaviours these
// expose — voltage noise needs activity that *oscillates* near the supply
// network's resonant frequency, thermal stress needs activity that is
// *sustained* — which is why the stress-testing use case gained the
// voltage-noise and thermal virus kinds alongside the paper's two endpoints.
package powersim

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"micrograd/internal/cpusim"
	"micrograd/internal/isa"
)

// TracePoint is the power draw of one activity window.
type TracePoint struct {
	// Cycles is the window length (the final window may be shorter). Zero on
	// time-domain windows, whose span is DurationNS.
	Cycles uint64
	// DurationNS is the window's time span in nanoseconds. It is set on
	// time-domain traces (SumTracesTime output); cycle-domain windows leave
	// it zero and derive their span from Cycles and the trace clock.
	DurationNS float64
	// EnergyPJ is the dynamic energy dissipated in the window.
	EnergyPJ float64
	// PowerW is the window's average dynamic power.
	PowerW float64
}

// PowerTrace is the windowed dynamic power waveform of one run.
type PowerTrace struct {
	// WindowCycles is the nominal window length the trace was recorded at
	// (zero for time-domain traces).
	WindowCycles int
	// FrequencyGHz is the core clock, for cycle→time conversion. Zero on
	// time-domain traces, which have no single clock.
	FrequencyGHz float64
	// WindowNS is the nominal grid window length in nanoseconds of a
	// time-domain trace (SumTracesTime output). Zero on cycle-domain traces.
	WindowNS float64
	// Points are the per-window samples, in time order.
	Points []TracePoint
}

// TimeDomain reports whether the trace lives on a nanosecond grid rather
// than a cycle grid. Time-domain traces arise from summing cores on
// different clocks; their timing is carried per point in DurationNS.
func (t PowerTrace) TimeDomain() bool { return t.WindowNS > 0 }

// PointDurationNS returns point i's time span in nanoseconds: the explicit
// DurationNS of a time-domain window, or Cycles converted through the trace
// clock. It returns 0 when the trace has neither (no clock, no duration).
func (t PowerTrace) PointDurationNS(i int) float64 {
	if d := t.Points[i].DurationNS; d > 0 {
		return d
	}
	if t.FrequencyGHz <= 0 {
		return 0
	}
	return float64(t.Points[i].Cycles) / t.FrequencyGHz
}

// DurationNS returns the trace's total time span in nanoseconds.
func (t PowerTrace) DurationNS() float64 {
	total := 0.0
	for i := range t.Points {
		total += t.PointDurationNS(i)
	}
	return total
}

// TotalEnergyPJ returns the trace's total dissipated energy.
func (t PowerTrace) TotalEnergyPJ() float64 {
	total := 0.0
	for _, p := range t.Points {
		total += p.EnergyPJ
	}
	return total
}

// Trace converts a run's window activity into a power trace. The result is
// empty when the run was simulated without window bookkeeping
// (cpusim.Config.WindowCycles == 0).
func (m *Model) Trace(r cpusim.Result) PowerTrace {
	return m.TraceInto(r, make([]TracePoint, 0, len(r.Windows)))
}

// TraceInto is Trace building the trace's points in buf's storage (grown
// when it is too short), for a caller that reuses one buffer across runs.
// The trace aliases buf.
func (m *Model) TraceInto(r cpusim.Result, buf []TracePoint) PowerTrace {
	t := PowerTrace{
		WindowCycles: r.Config.WindowCycles,
		FrequencyGHz: r.Config.FrequencyGHz,
		Points:       slices.Grow(buf[:0], len(r.Windows)),
	}
	for _, w := range r.Windows {
		e := float64(w.Instructions-w.ClassCounts[isa.ClassNop]) * m.coeff.FrontEndPJ
		for cl, n := range w.ClassCounts {
			if n > 0 {
				e += float64(n) * m.classPJ[cl]
			}
		}
		e += float64(w.L2Accesses) * m.coeff.L2AccessPJ
		e += float64(w.MemAccesses) * m.coeff.MemAccessPJ
		e += float64(w.Mispredicts) * m.coeff.MispredictPJ
		e += float64(w.Cycles) * m.coeff.ClockPJPerCycle
		p := TracePoint{Cycles: w.Cycles, EnergyPJ: e}
		if w.Cycles > 0 {
			// pJ/cycle * cycles/ns = mW; /1000 for W.
			p.PowerW = e / float64(w.Cycles) * t.FrequencyGHz / 1000
		}
		t.Points = append(t.Points, p)
	}
	return t
}

// Empty reports whether the trace has no samples.
func (t PowerTrace) Empty() bool { return len(t.Points) == 0 }

// TrimWarmup returns the trace without its first n windows. The transient
// analyses use this to drop the cold-cache warmup spike, which would
// otherwise dominate the droop and dI/dt of every kernel regardless of its
// steady-state behaviour (the supply simulation replays the trace, so a
// one-off warmup transient would ring the network on every pass).
func (t PowerTrace) TrimWarmup(n int) PowerTrace {
	if n <= 0 || n >= len(t.Points) {
		if n >= len(t.Points) {
			t.Points = nil
		}
		return t
	}
	t.Points = t.Points[n:]
	return t
}

// TrimWarmupCapped trims up to n warmup windows, capped at a quarter of the
// trace so very short runs keep most of their samples. It is the shared
// warmup policy of the single-core and chip-level transient analyses.
func (t PowerTrace) TrimWarmupCapped(n int) PowerTrace {
	if max := len(t.Points) / 4; n > max {
		n = max
	}
	return t.TrimWarmup(n)
}

// AvgPowerW returns the trace's time-weighted average power.
func (t PowerTrace) AvgPowerW() float64 {
	if t.TimeDomain() {
		var energy, ns float64
		for i, p := range t.Points {
			energy += p.EnergyPJ
			ns += t.PointDurationNS(i)
		}
		if ns == 0 {
			return 0
		}
		return energy / ns / 1000 // pJ/ns = mW
	}
	var energy, cycles float64
	for _, p := range t.Points {
		energy += p.EnergyPJ
		cycles += float64(p.Cycles)
	}
	if cycles == 0 {
		return 0
	}
	return energy / cycles * t.FrequencyGHz / 1000
}

// MaxStepWPerCycle is the cycle-domain dI/dt proxy metric: the largest power
// change between adjacent full-length windows, normalized by the nominal
// window length, in watts per cycle. Partial windows (the tail of a run) are
// excluded — their short averaging interval would otherwise inflate the
// metric by up to the window length depending on where the run happens to
// end. The metric is cycle-domain by definition; time-domain traces have no
// cycle to normalize by and report 0 — use MaxStepWPerNS for a metric that
// covers both domains.
func (t PowerTrace) MaxStepWPerCycle() float64 {
	max := 0.0
	nominal := uint64(t.WindowCycles)
	for i := 1; i < len(t.Points); i++ {
		cyc := float64(t.Points[i].Cycles)
		if cyc == 0 {
			continue
		}
		if nominal > 0 {
			if t.Points[i].Cycles != nominal || t.Points[i-1].Cycles != nominal {
				continue
			}
			cyc = float64(nominal)
		}
		d := t.Points[i].PowerW - t.Points[i-1].PowerW
		if d < 0 {
			d = -d
		}
		if d/cyc > max {
			max = d / cyc
		}
	}
	return max
}

// MaxStepWPerNS is the time-normalized dI/dt proxy metric: the largest power
// change between adjacent full-length windows, normalized by the nominal
// window duration, in watts per nanosecond. It is domain-aware — a
// cycle-domain trace's nominal window duration is WindowCycles through the
// trace clock, a time-domain trace's is WindowNS — so chip-level aggregates
// on the nanosecond grid keep a dI/dt metric. Partial windows are excluded
// for the same reason MaxStepWPerCycle excludes them. Traces without a
// nominal window (no WindowCycles/clock and no WindowNS) report 0.
func (t PowerTrace) MaxStepWPerNS() float64 {
	nominalNS := t.WindowNS
	if !t.TimeDomain() {
		if t.WindowCycles <= 0 || t.FrequencyGHz <= 0 {
			return 0
		}
		nominalNS = float64(t.WindowCycles) / t.FrequencyGHz
	}
	max := 0.0
	for i := 1; i < len(t.Points); i++ {
		if !t.fullWindow(i, nominalNS) || !t.fullWindow(i-1, nominalNS) {
			continue
		}
		d := t.Points[i].PowerW - t.Points[i-1].PowerW
		if d < 0 {
			d = -d
		}
		if d/nominalNS > max {
			max = d / nominalNS
		}
	}
	return max
}

// fullWindow reports whether point i spans the trace's nominal window
// length; the dI/dt metrics skip partial (tail) windows. Time-domain
// durations get a relative tolerance because the tail window's span is
// computed, not assigned.
func (t PowerTrace) fullWindow(i int, nominalNS float64) bool {
	if t.TimeDomain() {
		d := t.Points[i].DurationNS
		return math.Abs(d-nominalNS) <= 1e-9*nominalNS
	}
	return t.Points[i].Cycles == uint64(t.WindowCycles)
}

// SumTracesTime aligns several power traces onto one common grid of
// windowNS-long windows in the time domain — converting each trace's cycle
// spans to nanoseconds through its own FrequencyGHz, shifting trace i right
// by offsetsNS[i] nanoseconds (nil means no skew) — and sums them into a
// single chip-level trace. The inputs may run on different clocks; this is
// the single aggregation step of the multi-core co-run platform, for
// homogeneous chips and heterogeneous-frequency (big.LITTLE / DVFS) co-runs
// alike. Empty traces contribute nothing, skew included.
//
// Energy is conserved: each point's energy is spread uniformly over its
// time span, and a span's per-window overlaps are computed as differences
// of shared clamped boundaries, so they telescope to exactly the span.
// Summation order is fixed (trace order, then window order), so the result
// is bit-deterministic.
//
// The result is a time-domain trace: WindowNS is set, every point carries
// its DurationNS, and Cycles/WindowCycles/FrequencyGHz are zero (there is
// no single clock to count in).
func SumTracesTime(windowNS float64, offsetsNS []float64, traces ...PowerTrace) (PowerTrace, error) {
	return SumTracesTimeInto(nil, windowNS, offsetsNS, traces...)
}

// SumTracesTimeInto is SumTracesTime building the sum's points in buf's
// storage (grown when it is too short), for a caller that reuses one buffer
// across aggregations. The result aliases buf, also when it is empty.
func SumTracesTimeInto(buf []TracePoint, windowNS float64, offsetsNS []float64, traces ...PowerTrace) (PowerTrace, error) {
	if !(windowNS > 0) || math.IsInf(windowNS, 0) {
		return PowerTrace{}, fmt.Errorf("powersim: non-positive time-sum window length %g ns", windowNS)
	}
	if len(traces) == 0 {
		return PowerTrace{}, fmt.Errorf("powersim: no traces to sum")
	}
	if offsetsNS != nil {
		if len(offsetsNS) != len(traces) {
			return PowerTrace{}, fmt.Errorf("powersim: %d offsets for %d traces", len(offsetsNS), len(traces))
		}
		// Offsets are validated unconditionally, before the span pass: a
		// NaN/negative offset paired with an empty trace is just as malformed
		// as one paired with a non-empty trace, even though the empty trace
		// contributes no span.
		for i, off := range offsetsNS {
			if off < 0 || math.IsInf(off, 0) || math.IsNaN(off) {
				return PowerTrace{}, fmt.Errorf("powersim: bad time offset %g ns for trace %d", off, i)
			}
		}
	}
	// The end of the chip waveform, accumulated per trace in exactly the
	// order the spreading pass below walks it so the two agree bit-for-bit.
	var end float64
	for i, tr := range traces {
		if tr.Empty() {
			continue
		}
		span := 0.0
		if offsetsNS != nil {
			span = offsetsNS[i]
		}
		for j, p := range tr.Points {
			d := tr.PointDurationNS(j)
			if d == 0 && p.Cycles > 0 {
				return PowerTrace{}, fmt.Errorf("powersim: trace %d has cycle windows but no clock frequency", i)
			}
			span += d
		}
		if span > end {
			end = span
		}
	}
	out := PowerTrace{WindowNS: windowNS, Points: buf[:0]}
	if end == 0 {
		return out, nil
	}
	nWin := int(math.Ceil(end / windowNS))
	// Energy accumulates straight into the zeroed output points.
	pts := slices.Grow(out.Points, nWin)[:nWin]
	clear(pts)
	for i, tr := range traces {
		if tr.Empty() {
			continue
		}
		cursor := 0.0
		if offsetsNS != nil {
			cursor = offsetsNS[i]
		}
		for j, p := range tr.Points {
			d := tr.PointDurationNS(j)
			start := cursor
			cursor += d
			if d == 0 || p.EnergyPJ == 0 {
				continue
			}
			perNS := p.EnergyPJ / d
			first := int(start / windowNS)
			last := int(cursor / windowNS)
			for w := first; w <= last && w < nWin; w++ {
				lo := float64(w) * windowNS
				if lo < start {
					lo = start
				}
				hi := float64(w+1) * windowNS
				if hi > cursor {
					hi = cursor
				}
				if hi > lo {
					pts[w].EnergyPJ += perNS * (hi - lo)
				}
			}
		}
	}
	for w := range pts {
		d := windowNS
		if tail := end - float64(w)*windowNS; tail < d {
			d = tail
		}
		if d < 0 { // ceil rounding can manufacture an empty trailing window
			d = 0
		}
		pt := &pts[w]
		pt.DurationNS = d
		if d > 0 {
			pt.PowerW = pt.EnergyPJ / d / 1000 // pJ/ns = mW
		}
	}
	out.Points = pts
	return out, nil
}

// WriteCSV dumps the trace as
// "window,cycles,time_ns,duration_ns,energy_pj,power_w" rows, the format
// cmd/mgbench's -trace flag produces. time_ns is the cumulative time at the
// *end* of the window (the time axis of the waveform); duration_ns is the
// window's own span, which disambiguates time-domain rows where cycles is 0
// and the final, possibly partial, window of either domain.
func (t PowerTrace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"window", "cycles", "time_ns", "duration_ns", "energy_pj", "power_w"}); err != nil {
		return err
	}
	timeNS := 0.0
	for i, p := range t.Points {
		d := t.PointDurationNS(i)
		timeNS += d
		rec := []string{
			strconv.Itoa(i),
			strconv.FormatUint(p.Cycles, 10),
			strconv.FormatFloat(timeNS, 'f', 2, 64),
			strconv.FormatFloat(d, 'f', 3, 64),
			strconv.FormatFloat(p.EnergyPJ, 'f', 1, 64),
			strconv.FormatFloat(p.PowerW, 'f', 6, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SupplyModel is a lumped second-order model of the power delivery network:
// the package/board supply reaches the core through a series
// resistance+inductance, decoupled at the core by a capacitance, and the
// core draws the current implied by the power trace. Underdamped parameter
// choices (Q > 1) give the network a resonant frequency; load current that
// oscillates near it excites much larger voltage droop than a constant draw
// of the same average power — the behaviour the voltage-noise virus hunts.
type SupplyModel struct {
	// VddV is the nominal supply voltage.
	VddV float64
	// ResistanceOhm, InductanceH and CapacitanceF are the lumped PDN
	// elements (series R and L, shunt C at the core).
	ResistanceOhm float64
	InductanceH   float64
	CapacitanceF  float64
	// Passes caps how many times the trace is replayed so the waveform
	// settles into its periodic steady state; the solve stops early once a
	// pass rejoins the previous one.
	Passes int
	// MaxStepS caps the integration step; windows longer than this are
	// subdivided to keep the discretization stable.
	MaxStepS float64
}

// DefaultSupplyModel returns the PDN used by the built-in cores: Vdd 1 V,
// R 20 mΩ, L 2.1 nH, C 200 nF — a quality factor of ≈5 and a resonant
// frequency of ≈7.8 MHz, i.e. a period of ≈256 core cycles at 2 GHz. That
// period sits squarely in the range the BURST_LEN knob can phase activity
// bursts to (and is resolved by the default 64-cycle trace window); the
// selectivity of the high-Q peak is what rewards phase-aligned bursts over
// broadband stall noise.
func DefaultSupplyModel() SupplyModel {
	return SupplyModel{
		VddV:          1.0,
		ResistanceOhm: 0.02,
		InductanceH:   2.1e-9,
		CapacitanceF:  200e-9,
		Passes:        6,
		MaxStepS:      2e-9,
	}
}

// Validate checks the supply model parameters.
func (s SupplyModel) Validate() error {
	if s.VddV <= 0 || s.ResistanceOhm <= 0 || s.InductanceH <= 0 || s.CapacitanceF <= 0 {
		return fmt.Errorf("powersim: supply model needs positive Vdd, R, L and C")
	}
	if s.Passes < 1 {
		return fmt.Errorf("powersim: supply model needs at least one pass")
	}
	if s.MaxStepS <= 0 {
		return fmt.Errorf("powersim: supply model needs a positive integration step cap")
	}
	return nil
}

// WorstDroopMV simulates the supply network driven by the trace's load
// current and returns the worst-case voltage droop (Vdd minus the minimum
// core voltage) in millivolts. The network starts in the steady state of the
// trace's average current, so a perfectly constant load shows only its IR
// drop while an oscillating load adds the resonant ripple on top.
func (s SupplyModel) WorstDroopMV(t PowerTrace) float64 {
	if !s.droopable(t) {
		return 0
	}
	win := make([]supplyWindow, len(t.Points))
	i, v, ok := s.prepareWindows(t, win)
	if !ok {
		return 0
	}
	vMin := v

settle:
	for pass := 0; pass < s.Passes; pass++ {
		for n := range win {
			w := &win[n]
			// Replay stop: entering a window in exactly the state the
			// previous pass entered it with, this pass replays the previous
			// one from here on — its minima are already in vMin — and ends
			// where that pass ended, so every further pass replays this one.
			// Stopping is bit-identical to running all passes (see the
			// all-passes oracle in the tests).
			if pass > 0 && sameState(i, w.i) && sameState(v, w.v) {
				break settle
			}
			w.i, w.v = i, v
			hL, hC, ld := w.hOverL, w.hOverC, w.load
			for k := int32(0); k < w.steps; k++ {
				// Semi-implicit Euler keeps the underdamped system stable.
				i += hL * (s.VddV - v - s.ResistanceOhm*i)
				v += hC * (i - ld)
				if v < vMin {
					vMin = v
				}
			}
		}
	}
	return (s.VddV - vMin) * 1000
}

// droopable reports whether the trace drives the supply solve at all: it has
// samples and, unless it is a time-domain trace, a clock.
func (s SupplyModel) droopable(t PowerTrace) bool {
	return !t.Empty() && (t.TimeDomain() || t.FrequencyGHz > 0)
}

// prepareWindows overwrites win (one entry per trace point) with each window's
// load current (I = P/Vdd), step count and folded step constants (h/L, h/C —
// no divisions left in the integration loop), computed once and replayed
// across all settling passes. Cycle-domain traces keep the historical cycle
// arithmetic bit-for-bit; time-domain traces (mixed-frequency chip
// aggregates) carry their timing per point. It returns the warm start at
// the average-current operating point, or ok == false when the trace spans
// no time.
func (s SupplyModel) prepareWindows(t PowerTrace, win []supplyWindow) (i, v float64, ok bool) {
	avg := 0.0
	var weight float64
	timeDomain := t.TimeDomain()
	cycleS := 0.0
	if !timeDomain {
		cycleS = 1 / (t.FrequencyGHz * 1e9)
	}
	for n, p := range t.Points {
		w := &win[n]
		*w = supplyWindow{load: p.PowerW / s.VddV}
		var dt float64
		if timeDomain {
			dt = t.PointDurationNS(n) * 1e-9
			avg += w.load * dt
			weight += dt
		} else {
			dt = float64(p.Cycles) * cycleS
			avg += w.load * float64(p.Cycles)
			weight += float64(p.Cycles)
		}
		if dt == 0 {
			continue
		}
		k := int(dt/s.MaxStepS) + 1
		h := dt / float64(k)
		w.steps = int32(k)
		w.hOverL = h / s.InductanceH
		w.hOverC = h / s.CapacitanceF
	}
	if weight == 0 {
		return 0, 0, false
	}
	avg /= weight
	return avg, s.VddV - avg*s.ResistanceOhm, true
}

// supplyWindow is one trace window of the lumped supply solve: its load
// current, step count and folded step constants, plus the integrator state
// (current i, voltage v) the latest settling pass entered it with.
type supplyWindow struct {
	load, hOverL, hOverC float64
	steps                int32
	i, v                 float64
}

// sameState reports whether two integrator state values are the same bit
// pattern — the exact equality under which a settling pass replays the
// previous one (a NaN state matches itself and stays NaN, which never
// lowers a minimum).
func sameState(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// ThermalModel is a lumped thermal-RC model of the core hotspot: dissipated
// power heats a thermal capacitance that leaks to ambient through a thermal
// resistance. The thermal time constant is orders of magnitude longer than
// a trace, so the reported temperature is dominated by sustained average
// power — the behaviour the thermal virus maximizes.
type ThermalModel struct {
	// AmbientC is the heat-sink/case reference temperature in °C.
	AmbientC float64
	// RthCPerW is the junction-to-ambient thermal resistance in °C/W.
	RthCPerW float64
	// CthJPerC is the hotspot thermal capacitance in J/°C.
	CthJPerC float64
	// Passes is how many times the trace is replayed when integrating the
	// transient on top of the steady-state starting point.
	Passes int
	// MaxStepS caps the integration step; windows longer than this are
	// subdivided to keep the forward-Euler discretization stable (a single
	// step with dt > Rth·Cth overshoots the RC response and oscillates).
	MaxStepS float64
}

// DefaultThermalModel returns the thermal model used by the built-in cores:
// 45 °C reference, 28 °C/W hotspot resistance, 2 mJ/°C capacitance
// (τ ≈ 56 ms), integration steps capped at 1 ms (τ/56).
func DefaultThermalModel() ThermalModel {
	return ThermalModel{AmbientC: 45, RthCPerW: 28, CthJPerC: 2e-3, Passes: 4, MaxStepS: 1e-3}
}

// Validate checks the thermal model parameters.
func (m ThermalModel) Validate() error {
	if m.RthCPerW <= 0 || m.CthJPerC <= 0 {
		return fmt.Errorf("powersim: thermal model needs positive Rth and Cth")
	}
	if m.Passes < 1 {
		return fmt.Errorf("powersim: thermal model needs at least one pass")
	}
	if m.MaxStepS <= 0 {
		return fmt.Errorf("powersim: thermal model needs a positive integration step cap")
	}
	return nil
}

// SteadyTempC returns the steady-state hotspot temperature in °C reached
// when the trace repeats indefinitely: the RC response is integrated from
// the average-power operating point and the peak temperature reported.
// Windows longer than MaxStepS are subdivided like the supply model's, so a
// pathologically long window cannot overshoot the RC response and report a
// bogus peak.
func (m ThermalModel) SteadyTempC(t PowerTrace) float64 {
	if t.Empty() || (!t.TimeDomain() && t.FrequencyGHz <= 0) {
		return m.AmbientC
	}
	avg := t.AvgPowerW()
	temp := m.AmbientC + m.RthCPerW*avg
	tMax := temp
	cycleS := 0.0
	if t.FrequencyGHz > 0 {
		cycleS = 1 / (t.FrequencyGHz * 1e9)
	}
	for pass := 0; pass < m.Passes; pass++ {
		tStart := temp
		for n, p := range t.Points {
			dt := float64(p.Cycles) * cycleS
			if t.TimeDomain() {
				dt = t.PointDurationNS(n) * 1e-9
			}
			if dt == 0 {
				continue
			}
			steps := int(dt/m.MaxStepS) + 1
			h := dt / float64(steps)
			// Distribute the step over the RC terms once per window so the
			// inner loop carries no divisions.
			gain := h / m.CthJPerC * p.PowerW
			leak := h / (m.CthJPerC * m.RthCPerW)
			for k := 0; k < steps; k++ {
				temp += gain - leak*(temp-m.AmbientC)
				if temp > tMax {
					tMax = temp
				}
			}
		}
		// A pass that ends exactly where it began would replay identically
		// forever; stopping is bit-identical to running the rest.
		//lint:allow floateq deliberate exact-state convergence check; stopping is bit-identical
		if temp == tStart {
			break
		}
	}
	return tMax
}
