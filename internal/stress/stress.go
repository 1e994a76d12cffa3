// Package stress implements MicroGrad's Stress Testing use case: tune the
// knob configuration so that the generated workload drives a chosen metric
// to its worst case — minimum IPC for a performance virus, maximum dynamic
// power for a power virus.
package stress

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"micrograd/internal/evalcache"
	"micrograd/internal/isa"
	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/microprobe"
	"micrograd/internal/platform"
	"micrograd/internal/program"
	"micrograd/internal/report"
	"micrograd/internal/tuner"
)

// Kind selects the stress-test goal.
type Kind string

// Built-in stress test kinds.
const (
	// PerfVirus minimizes IPC (the paper's Fig. 5 "worst case performance").
	PerfVirus Kind = "perf-virus"
	// PowerVirus maximizes dynamic power (the paper's Fig. 6).
	PowerVirus Kind = "power-virus"
	// VoltageNoiseVirus maximizes worst-case supply voltage droop by
	// phase-aligning activity bursts (via the duty-cycle/burst knobs) to the
	// supply network's resonant frequency.
	VoltageNoiseVirus Kind = "voltage-noise-virus"
	// ThermalVirus maximizes the steady-state hotspot temperature of the
	// lumped thermal-RC model.
	ThermalVirus Kind = "thermal-virus"
	// CoRunNoiseVirus maximizes the worst-case droop of a shared multi-core
	// power-delivery network: N cores co-run phase-rotated copies of one
	// kernel, and the tuner searches the joint space of kernel shape and
	// per-core PHASE_OFFSET.
	CoRunNoiseVirus Kind = "corun-noise-virus"
	// DVFSNoiseVirus extends the co-run noise virus with per-core DVFS: each
	// core's clock is a FREQ_GHZ_<i> knob the tuner sets alongside kernel
	// shape and burst phase, so the search covers heterogeneous
	// (big.LITTLE-style) frequency mixes whose chip traces are aggregated in
	// the time domain.
	DVFSNoiseVirus Kind = "dvfs-noise-virus"
	// SpatialNoiseVirus is the spatially-targeted droop virus: on a
	// spatial-grid chip it maximizes the chip-worst *node* droop by
	// phase-aligning the cores a floorplan co-locates so they hammer one
	// PDN region in lockstep, using the finer per-core PHASE_OFFSET grid of
	// knobs.SpatialStressSpace; on a grid-configured chip
	// chip_worst_droop_mv is the worst node droop.
	SpatialNoiseVirus Kind = "spatial-noise-virus"
	// HotspotMigrationVirus is the spatial thermal virus: it maximizes the
	// chip hotspot temperature (chip_temp_c, the hottest grid node) by
	// concentrating sustained activity on one die region — migrating the
	// hotspot away from the uniform-power answer the lumped model reports.
	HotspotMigrationVirus Kind = "hotspot-migration-virus"
)

// kindRow is one built-in kind: the metric it drives and in which
// direction, whether it needs a chip (two or more cores), its default knob
// space on cores cores, and a short name KindByName also accepts.
type kindRow struct {
	kind           Kind
	metric         string
	maximize, chip bool
	space          func(cores int) *knobs.Space
	alias          string
}

// kindTable holds every built-in kind, the single-core ones first, in the
// order Kinds, KindList and KindByName list them.
var kindTable = []kindRow{
	{PerfVirus, metrics.IPC, false, false, anyCores(knobs.InstructionOnlySpace), ""},
	{PowerVirus, metrics.DynamicPowerW, true, false, anyCores(knobs.StressSpace), ""},
	{VoltageNoiseVirus, metrics.WorstDroopMV, true, false, anyCores(knobs.TransientStressSpace), ""},
	{ThermalVirus, metrics.TempC, true, false, anyCores(knobs.TransientStressSpace), ""},
	{CoRunNoiseVirus, metrics.ChipWorstDroopMV, true, true, knobs.CoRunStressSpace, ""},
	{DVFSNoiseVirus, metrics.ChipWorstDroopMV, true, true, knobs.DVFSStressSpace, ""},
	{SpatialNoiseVirus, metrics.ChipWorstDroopMV, true, true, knobs.SpatialStressSpace, "spatial"},
	{HotspotMigrationVirus, metrics.ChipTempC, true, true, knobs.SpatialStressSpace, "hotspot"},
}

// anyCores adapts a space that does not depend on the core count.
func anyCores(space func() *knobs.Space) func(int) *knobs.Space {
	return func(int) *knobs.Space { return space() }
}

// row returns the kind's table row; ok is false for a kind outside it.
func (k Kind) row() (r kindRow, ok bool) {
	for _, r := range kindTable {
		if r.kind == k {
			return r, true
		}
	}
	return kindRow{}, false
}

// Kinds returns the built-in kinds a single core can run, in table order.
func Kinds() []Kind {
	var out []Kind
	for _, r := range kindTable {
		if !r.chip {
			out = append(out, r.kind)
		}
	}
	return out
}

// MultiCore reports whether the kind needs the multi-core co-run platform.
func (k Kind) MultiCore() bool {
	r, _ := k.row()
	return r.chip
}

// KindList lists the built-in kinds for help text, in table order: the
// single-core kinds, and with chip the chip kinds too, each followed by
// the alias KindByName also accepts.
func KindList(chip bool) string {
	var names []string
	for _, r := range kindTable {
		switch {
		case r.chip && !chip:
		case r.alias != "":
			names = append(names, fmt.Sprintf("%s (alias: %s)", r.kind, r.alias))
		default:
			names = append(names, string(r.kind))
		}
	}
	return strings.Join(names, ", ")
}

// KindByName resolves a built-in kind by its name or alias.
func KindByName(name string) (Kind, error) {
	for _, r := range kindTable {
		if string(r.kind) == name || (r.alias != "" && r.alias == name) {
			return r.kind, nil
		}
	}
	return "", fmt.Errorf("stress: unknown kind %q (want one of %s)", name, KindList(true))
}

// DefaultMaxEpochs bounds stress tuning runs; the paper's stress tests
// converge within 25-45 epochs.
const DefaultMaxEpochs = 45

// Options configures a stress-testing run.
type Options struct {
	// Space is the knob space; nil selects the kind's default space.
	Space *knobs.Space
	// Tuner is the tuning mechanism; nil means gradient descent.
	Tuner tuner.Tuner
	// Platform is the evaluation platform. Power-virus runs require a
	// platform that can produce the dynamic power metric
	// (platform.SimPlatform with CollectPower).
	Platform platform.Platform
	// EvalOptions controls each evaluation. CollectPower is forced on for
	// a metric only power collection measures, and under a power cap.
	EvalOptions platform.EvalOptions
	// LoopSize is the stress kernel's static size; zero means the generator
	// default (≈500).
	LoopSize int
	// Seed drives stochastic choices.
	Seed int64
	// MaxEpochs bounds tuning; zero means DefaultMaxEpochs.
	MaxEpochs int
	// MaxEvaluations bounds the total number of candidate evaluations the
	// tuner may propose (tuner.Problem.MaxEvaluations); zero means
	// unlimited. Budget-planned tuners (the successive-halving wrapper)
	// require it.
	MaxEvaluations int
	// TargetValue optionally stops the search once the stressed metric
	// reaches it (at or below for minimized metrics, at or above for
	// maximized ones). Nil disables the early stop.
	TargetValue *float64
	// PowerCapW constrains the search to configurations whose measured
	// power stays at or below the cap — chip_power_w on co-run platforms,
	// dynamic_power_w otherwise. Zero or negative means unconstrained.
	PowerCapW float64
	// Metric overrides the stressed metric (default: IPC or dynamic power
	// depending on Kind). Maximize selects the direction for custom metrics.
	Metric   string
	Maximize bool
	// Initial optionally fixes the tuner's starting configuration (e.g. to
	// warm-start a voltage-noise search from a power-virus result). It must
	// belong to Space when both are set; when Space is nil the initial
	// configuration's space is used.
	Initial knobs.Config
	// Parallel is the number of candidate evaluations run concurrently
	// inside each tuning epoch. Values <= 1 keep the serial path; results
	// are bit-identical either way. Parallel runs additionally need
	// NewPlatform so each worker gets its own platform instance: Platform
	// is the first worker's.
	Parallel int
	// NewPlatform creates an independent evaluation platform for one more
	// worker; a parallel run calls it Parallel-1 times. Required when
	// Parallel > 1 because Platform implementations are not
	// concurrency-safe.
	NewPlatform func() (platform.Platform, error)
	// Memo optionally supplies a shared evaluation-cache group (one per
	// daemon or experiment suite); the run's evaluator joins it with keys
	// derived from the platform identity, synthesizer options and
	// evaluation options, so concurrent runs over the same platform reuse
	// each other's results. Nil keeps a private cache.
	Memo *evalcache.Group
	// Synth optionally supplies a shared kernel-synthesis memo. Its options
	// override LoopSize/Seed for generation, so every run sharing it —
	// and the evaluation cache keys derived from it — agree on kernel
	// content. Nil builds a private one from LoopSize/Seed.
	Synth *microprobe.CachingSynthesizer
	// OnEpoch, when set, streams each progression point as the tuning run
	// produces it (the daemon's live progression feed). Called
	// synchronously from the tuning loop.
	OnEpoch func(EpochPoint)
}

// goal returns the metric and direction for a kind.
func (o Options) goal(kind Kind) (string, bool, error) {
	if o.Metric != "" {
		return o.Metric, o.Maximize, nil
	}
	r, ok := kind.row()
	if !ok {
		return "", false, fmt.Errorf("stress: unknown kind %q and no explicit metric", kind)
	}
	return r.metric, r.maximize, nil
}

// normalized fills in defaults for a kind; a custom kind's default space is
// the instruction-only space.
func (o Options) normalized(kind Kind) Options {
	if o.Space == nil {
		r, ok := kind.row()
		switch {
		case !o.Initial.IsZero():
			o.Space = o.Initial.Space()
		case ok:
			o.Space = r.space(o.Platform.NumCores())
		default:
			o.Space = knobs.InstructionOnlySpace()
		}
	}
	if o.Tuner == nil {
		o.Tuner = tuner.NewGradientDescent()
	}
	if o.MaxEpochs <= 0 {
		o.MaxEpochs = DefaultMaxEpochs
	}
	return o
}

// EpochPoint is one point of the stress progression curve (the paper's
// Figs. 5 and 6 series).
type EpochPoint struct {
	// Epoch is the 1-based tuning epoch.
	Epoch int
	// BestValue is the best (worst-case) metric value found so far.
	BestValue float64
	// Evaluations is the number of platform evaluations spent in the epoch.
	Evaluations int
	// CumulativeEvaluations is the run's total evaluation count at the end
	// of the epoch — the fair x-axis when comparing tuning mechanisms with
	// different per-epoch costs.
	CumulativeEvaluations int
}

// Report is the outcome of one stress-testing run.
type Report struct {
	// Kind and Metric describe the goal.
	Kind     Kind
	Metric   string
	Maximize bool
	// BestValue is the worst-case metric value achieved.
	BestValue float64
	// BestMetrics is the full metric vector of the stress test.
	BestMetrics metrics.Vector
	// Progression is the per-epoch best value (Figs. 5-6 series).
	Progression []EpochPoint
	// InstrMix is the dynamic instruction-class distribution of the stress
	// test (the paper's Table III).
	InstrMix map[isa.Class]float64
	// RegDist is the register dependency distance chosen by the stress test
	// (the paper reports the power virus drives it to the maximum).
	RegDist int
	// DutyCycle and BurstLen are the activity-burst knobs chosen by the
	// stress test (1 and 0 when the space does not tune them).
	DutyCycle float64
	BurstLen  int
	// PhaseOffsets are the per-core burst-schedule rotations chosen by a
	// co-run stress test (nil when the space has no PHASE_OFFSET knobs).
	PhaseOffsets []int
	// FreqsGHz are the per-core clocks chosen by a DVFS stress test (nil
	// when the space has no FREQ_GHZ knobs).
	FreqsGHz []float64
	// Config is the best knob configuration.
	Config knobs.Config
	// Program is the generated stress kernel.
	Program *program.Program
	// Epochs and Evaluations account for the tuning cost.
	Epochs      int
	Evaluations int
	// TunerResult carries the raw tuning output.
	TunerResult tuner.Result
}

// ProgressionSeries converts the per-epoch progression into a named series
// for charts and CSV dumps.
func (r Report) ProgressionSeries(name string) report.Series {
	s := report.Series{Name: name}
	for _, p := range r.Progression {
		s.AddPoint(float64(p.Epoch), p.BestValue)
	}
	return s
}

// Run generates a stress test of the given kind.
func Run(ctx context.Context, kind Kind, opts Options) (Report, error) {
	metric, maximize, err := opts.goal(kind)
	if err != nil {
		return Report{}, err
	}
	if opts.Platform == nil {
		return Report{}, fmt.Errorf("stress: no evaluation platform configured")
	}
	opts = opts.normalized(kind)
	// A kind and its platform must pair up: the co-run kinds need a chip
	// (a platform of more than one core) to synthesize per-core kernels for,
	// and the single-platform kinds stress metrics a chip-level vector never
	// carries, unless an explicit Metric overrides the kind's. A single core
	// measures nothing outside platform.CoreMetrics.
	coRunPlat := opts.Platform.NumCores() > 1
	switch {
	case kind.MultiCore() && !coRunPlat:
		return Report{}, fmt.Errorf("stress: %s requires a co-run platform (got %s, a single core)",
			kind, opts.Platform.Name())
	case !kind.MultiCore() && coRunPlat && opts.Metric == "":
		return Report{}, fmt.Errorf("stress: %s stresses %s, which the co-run platform %s does not produce (use %s or %s, or set Metric explicitly)",
			kind, metric, opts.Platform.Name(), CoRunNoiseVirus, DVFSNoiseVirus)
	case !coRunPlat && !slices.Contains(platform.CoreMetrics, metric):
		return Report{}, fmt.Errorf("stress: the single core %s measures no %q (it measures %s)",
			opts.Platform.Name(), metric, strings.Join(platform.CoreMetrics, ", "))
	}
	evalOpts := opts.EvalOptions
	// Only power collection measures a metric the no-power vector lacks.
	if !slices.Contains(platform.CoreMetricsNoPower, metric) || opts.PowerCapW > 0 {
		evalOpts.CollectPower = true
	}

	// One shared synthesizer (pure per call), one platform — and one
	// EvalSession — per worker. The memoizing synthesizer is shared across
	// workers — and, when Options.Synth supplies one, across whole jobs —
	// so candidates differing only in evaluation-time knobs (per-core
	// clocks, start skews) reuse the already-synthesized kernels.
	newPlatform := opts.NewPlatform
	if newPlatform != nil {
		newPlatform = func() (platform.Platform, error) {
			plat, err := opts.NewPlatform()
			if err != nil {
				return nil, err
			}
			// Worker platforms must take the same evaluation path as the
			// primary, or parallel runs would diverge from serial ones.
			if (plat.NumCores() > 1) != coRunPlat {
				return nil, fmt.Errorf("stress: NewPlatform returned %s, which does not match the primary platform %s",
					plat.Name(), opts.Platform.Name())
			}
			return plat, nil
		}
	}

	targetLoss := tuner.NoTargetLoss
	if opts.TargetValue != nil {
		// The tuner minimizes loss; maximized metrics are negated, so a
		// metric target maps onto the loss axis the same way.
		targetLoss = *opts.TargetValue
		if maximize {
			targetLoss = -targetLoss
		}
	}
	prob := tuner.Problem{
		Space:          opts.Space,
		Loss:           metrics.StressLoss{Metric: metric, Maximize: maximize},
		MaxEpochs:      opts.MaxEpochs,
		MaxEvaluations: opts.MaxEvaluations,
		TargetLoss:     targetLoss,
		Seed:           opts.Seed,
		Initial:        opts.Initial,
	}
	if onEpoch := opts.OnEpoch; onEpoch != nil {
		prob.OnEpoch = func(rec tuner.EpochRecord) { onEpoch(epochPoint(rec, maximize)) }
	}
	if opts.PowerCapW > 0 {
		capMetric := metrics.DynamicPowerW
		if coRunPlat {
			capMetric = metrics.ChipPowerW
		}
		prob.Constraint = &tuner.Constraint{Metric: capMetric, Max: opts.PowerCapW}
	}
	res, prog, evaluations, err := tuner.TunePlatform(ctx, opts.Tuner, tuner.PlatformOptions{
		Name:        string(kind),
		Platform:    opts.Platform,
		Parallel:    opts.Parallel,
		NewPlatform: newPlatform,
		Synth:       opts.Synth,
		LoopSize:    opts.LoopSize,
		Options:     evalOpts,
		Memo:        opts.Memo,
	}, prob)
	if err != nil {
		return Report{}, fmt.Errorf("stress: %w", err)
	}
	// Under a cap nothing met, the tuner's best is the least-violating
	// candidate and its loss a penalty: no result to report.
	if c := prob.Constraint; c != nil {
		if got, ok := res.BestMetrics[c.Metric]; !ok || got > c.Max {
			return Report{}, fmt.Errorf("stress: %s found no configuration within the %g W power cap: the best measures %s = %.4g W",
				kind, c.Max, c.Metric, got)
		}
	}
	prog.Meta["use_case"] = "stress-testing"
	prog.Meta["stress_metric"] = metric

	rep := Report{
		Kind:        kind,
		Metric:      metric,
		Maximize:    maximize,
		BestValue:   lossToValue(res.BestLoss, maximize),
		BestMetrics: res.BestMetrics.Clone(),
		InstrMix:    mixFromMetrics(res.BestMetrics),
		Config:      res.Best,
		Program:     prog,
		Epochs:      len(res.Epochs),
		Evaluations: evaluations,
		TunerResult: res,
	}
	if rd, ok := res.Best.ValueByName(knobs.NameRegDist); ok {
		rep.RegDist = int(rd)
	} else {
		rep.RegDist = res.Best.Settings().RegDist
	}
	rep.DutyCycle = 1
	if dc, ok := res.Best.ValueByName(knobs.NameDutyCycle); ok {
		rep.DutyCycle = dc
	}
	if bl, ok := res.Best.ValueByName(knobs.NameBurstLen); ok {
		rep.BurstLen = int(bl)
	}
	for core := 0; ; core++ {
		off, ok := res.Best.ValueByName(knobs.PhaseOffsetName(core))
		if !ok {
			break
		}
		rep.PhaseOffsets = append(rep.PhaseOffsets, int(off))
	}
	for core := 0; ; core++ {
		f, ok := res.Best.ValueByName(knobs.FreqGHzName(core))
		if !ok {
			break
		}
		rep.FreqsGHz = append(rep.FreqsGHz, f)
	}
	for _, rec := range res.Epochs {
		rep.Progression = append(rep.Progression, epochPoint(rec, maximize))
	}
	return rep, nil
}

// epochPoint converts a tuning epoch record into a progression point.
func epochPoint(rec tuner.EpochRecord, maximize bool) EpochPoint {
	return EpochPoint{
		Epoch:                 rec.Epoch,
		BestValue:             lossToValue(rec.BestLoss, maximize),
		Evaluations:           rec.Evaluations,
		CumulativeEvaluations: rec.CumulativeEvaluations,
	}
}

// lossToValue converts a stress loss back into the metric value.
func lossToValue(loss float64, maximize bool) float64 {
	if maximize {
		return -loss
	}
	return loss
}

// mixFromMetrics extracts the dynamic instruction-class distribution from a
// metric vector. All six classes — including NOP, which dominates the idle
// phases of duty-cycled kernels — are reported, so the fractions sum to 1.
// Chip-level vectors carry no per-class fractions; the mix is nil for them
// rather than a misleading all-zero distribution.
func mixFromMetrics(v metrics.Vector) map[isa.Class]float64 {
	if _, ok := v[metrics.FracInteger]; !ok {
		return nil
	}
	return map[isa.Class]float64{
		isa.ClassInteger: v[metrics.FracInteger],
		isa.ClassFloat:   v[metrics.FracFloat],
		isa.ClassBranch:  v[metrics.FracBranch],
		isa.ClassLoad:    v[metrics.FracLoad],
		isa.ClassStore:   v[metrics.FracStore],
		isa.ClassNop:     v[metrics.FracNop],
	}
}
