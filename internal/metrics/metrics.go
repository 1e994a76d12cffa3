// Package metrics defines the metric vectors exchanged between the
// evaluation platforms and the tuning mechanism, together with the loss
// functions MicroGrad optimizes: a weighted log-loss over target metrics for
// workload cloning and a signed single-metric loss for stress testing.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Standard metric names produced by the evaluation platforms. They cover the
// paper's evaluation targets (§IV-A4): instruction-class distribution, cache
// hit rates, branch misprediction rate, IPC and dynamic power.
const (
	IPC                  = "ipc"
	CPI                  = "cpi"
	DynamicPowerW        = "dynamic_power_w"
	FracInteger          = "frac_integer"
	FracFloat            = "frac_float"
	FracLoad             = "frac_load"
	FracStore            = "frac_store"
	FracBranch           = "frac_branch"
	FracNop              = "frac_nop"
	BranchMispredictRate = "branch_mispredict_rate"
	L1IHitRate           = "l1i_hit_rate"
	L1DHitRate           = "l1d_hit_rate"
	L2HitRate            = "l2_hit_rate"
	DTLBMissRate         = "dtlb_miss_rate"
	Instructions         = "instructions"
	Cycles               = "cycles"
	// Transient-power metrics derived from the windowed power trace.
	WorstDroopMV     = "worst_droop_mv"     // worst-case supply voltage droop
	MaxDIDTWPerCycle = "max_didt_w_per_cyc" // largest window-to-window power step
	TempC            = "temp_c"             // steady-state hotspot temperature
	// Chip-level metrics produced by the multi-core co-run platform: the
	// per-core power traces are summed onto a common nanosecond grid and
	// driven through the shared supply and thermal models.
	ChipPowerW        = "chip_power_w"           // chip-level average dynamic power
	ChipWorstDroopMV  = "chip_worst_droop_mv"    // worst-case droop of the shared PDN
	ChipMaxDIDTWPerNS = "chip_max_didt_w_per_ns" // largest chip window power step per ns
	ChipTempC         = "chip_temp_c"            // hotspot temperature of the shared die
	// FreqGHz is the clock a core ran at; the co-run platform reports it per
	// core (coreN_freq_ghz) so DVFS evaluations record their operating points.
	FreqGHz = "freq_ghz"
)

// NodeDroopMV names grid node (row, col)'s worst-case supply droop metric
// ("node0_1_droop_mv"), emitted by spatial-grid chips alongside the
// chip-worst values.
func NodeDroopMV(row, col int) string {
	return fmt.Sprintf("node%d_%d_droop_mv", row, col)
}

// NodeTempC names grid node (row, col)'s peak temperature metric
// ("node0_1_temp_c"), emitted by spatial-grid chips alongside the
// chip-worst values.
func NodeTempC(row, col int) string {
	return fmt.Sprintf("node%d_%d_temp_c", row, col)
}

// CloningMetricNames returns the metric set the cloning use case targets by
// default, matching the paper's Fig. 2–4 radar axes.
func CloningMetricNames() []string {
	return []string{
		FracInteger, FracLoad, FracStore, FracBranch,
		BranchMispredictRate, L1IHitRate, L1DHitRate, L2HitRate, IPC,
	}
}

// Vector is a named set of metric values.
type Vector map[string]float64

// Clone returns a copy of the vector.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	for k, val := range v {
		out[k] = val
	}
	return out
}

// Names returns the metric names in sorted order.
func (v Vector) Names() []string {
	names := make([]string, 0, len(v))
	for k := range v {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// String renders the vector deterministically.
func (v Vector) String() string {
	parts := make([]string, 0, len(v))
	for _, n := range v.Names() {
		parts = append(parts, fmt.Sprintf("%s=%.4g", n, v[n]))
	}
	return strings.Join(parts, " ")
}

// epsilon guards ratios and logarithms against zero-valued metrics
// (e.g. a zero misprediction rate).
const epsilon = 1e-6

// AccuracyRatio returns got/want, the paper's radar-axis value: 1.0 means a
// perfect match, values above/below 1 indicate over/under-shoot. Zero-valued
// references are guarded with a small epsilon.
func AccuracyRatio(got, want float64) float64 {
	g, w := math.Abs(got), math.Abs(want)
	if w < epsilon {
		w = epsilon
	}
	if g < epsilon {
		g = epsilon
	}
	return g / w
}

// RelativeError returns |got-want| / max(|want|, epsilon).
func RelativeError(got, want float64) float64 {
	den := math.Abs(want)
	if den < epsilon {
		den = epsilon
	}
	return math.Abs(got-want) / den
}

// MeanRelativeError averages RelativeError across the named metrics present
// in both vectors. It returns 0 when no metric overlaps.
func MeanRelativeError(got, want Vector, names []string) float64 {
	total, n := 0.0, 0
	for _, name := range names {
		g, okG := got[name]
		w, okW := want[name]
		if !okG || !okW {
			continue
		}
		total += RelativeError(g, w)
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// MeanAccuracy returns 1 - MeanRelativeError, clamped to [0,1].
func MeanAccuracy(got, want Vector, names []string) float64 {
	acc := 1 - MeanRelativeError(got, want, names)
	if acc < 0 {
		return 0
	}
	return acc
}

// Loss maps a measured metric vector to a scalar the tuner minimizes.
type Loss interface {
	// Loss returns the scalar loss for the measured metrics (lower is
	// better for every use case; stress maximization is expressed by
	// negating the metric).
	Loss(measured Vector) float64
	// Name identifies the loss for reports.
	Name() string
}

// CloneLoss is the workload-cloning loss: a log-loss over the target metrics
// (§IV-A4). For each metric m it accumulates ln(measured_m / target_m)^2,
// which penalizes relative (not absolute) deviation symmetrically.
type CloneLoss struct {
	// Target is the reference application's metric vector.
	Target Vector
	// Metrics restricts the loss to these names; empty means every metric in
	// Target.
	Metrics []string
}

// Name implements Loss.
func (CloneLoss) Name() string { return "clone-logloss" }

// metricNames lists the metrics the loss reads, in summation order.
func (c CloneLoss) metricNames() []string {
	if len(c.Metrics) > 0 {
		return c.Metrics
	}
	return c.Target.Names()
}

// Loss implements Loss.
func (c CloneLoss) Loss(measured Vector) float64 {
	total := 0.0
	for _, name := range c.metricNames() {
		target, ok := c.Target[name]
		if !ok {
			continue
		}
		got, ok := measured[name]
		if !ok {
			// A metric the platform failed to produce counts as a large
			// penalty rather than silently shrinking the loss.
			total += 10
			continue
		}
		lr := math.Log(AccuracyRatio(got, target))
		total += lr * lr
	}
	return total
}

// StressLoss is the stress-testing loss over a single metric: minimize the
// metric (performance virus: worst-case IPC) or maximize it (power virus:
// worst-case dynamic power).
type StressLoss struct {
	// Metric is the metric to stress.
	Metric string
	// Maximize selects maximization (loss = -metric) instead of
	// minimization (loss = +metric).
	Maximize bool
}

// Name implements Loss.
func (s StressLoss) Name() string {
	dir := "min"
	if s.Maximize {
		dir = "max"
	}
	return fmt.Sprintf("stress-%s-%s", dir, s.Metric)
}

// Loss implements Loss.
func (s StressLoss) Loss(measured Vector) float64 {
	v, ok := measured[s.Metric]
	if !ok {
		return math.Inf(1)
	}
	if s.Maximize {
		return -v
	}
	return v
}
