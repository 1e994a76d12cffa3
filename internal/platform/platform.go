// Package platform implements MicroGrad's evaluation platforms (§III-E of
// the paper): the boundary through which generated test cases are executed
// and their metrics collected. The paper interfaces with Gem5, McPAT and
// native hardware; this reproduction provides SimPlatform, the Gem5+McPAT
// substitute built on internal/cpusim, internal/memsim, internal/branchsim
// and internal/powersim, plus the two core configurations of the paper's
// Table II (Small, Large).
package platform

import (
	"fmt"
	"slices"
	"sync"

	"micrograd/internal/branchsim"
	"micrograd/internal/cpusim"
	"micrograd/internal/isa"
	"micrograd/internal/memsim"
	"micrograd/internal/metrics"
	"micrograd/internal/powersim"
	"micrograd/internal/program"
)

// CoreKind names a core configuration.
type CoreKind string

// The two cores of the paper's Table II.
const (
	SmallCore CoreKind = "small"
	LargeCore CoreKind = "large"
)

// DefaultWindowCycles is the activity-window length the built-in cores
// record power traces at: 64 cycles (32 ns at 2 GHz) resolves oscillations
// down to well below the default supply network's ≈256-cycle resonant
// period.
const DefaultWindowCycles = 64

// CoreSpec bundles everything needed to instantiate an evaluation platform
// for one core: the out-of-order core parameters, the cache hierarchy, the
// branch predictor and the power template.
type CoreSpec struct {
	Kind    CoreKind
	CPU     cpusim.Config
	Memory  memsim.HierarchyConfig
	Branch  branchsim.Config
	Power   powersim.Coefficients
	Supply  powersim.SupplyModel
	Thermal powersim.ThermalModel
}

// Validate checks every component of the spec.
func (s CoreSpec) Validate() error {
	if s.Kind == "" {
		return fmt.Errorf("platform: core spec without kind")
	}
	if err := s.CPU.Validate(); err != nil {
		return err
	}
	if err := s.Memory.Validate(); err != nil {
		return err
	}
	if err := s.Branch.Validate(); err != nil {
		return err
	}
	if err := s.Power.Validate(); err != nil {
		return err
	}
	if err := s.Supply.Validate(); err != nil {
		return err
	}
	return s.Thermal.Validate()
}

// Small returns the paper's "Small" core (Table II): 3-wide front end,
// 40/16/32 ROB/LSQ/RSE, 3/2/2 ALU/SIMD/FP pipes, 16 KiB L1s, 256 KiB L2.
func Small() CoreSpec {
	return CoreSpec{
		Kind: SmallCore,
		CPU: cpusim.Config{
			Name: string(SmallCore), FrequencyGHz: 2, FrontEndWidth: 3,
			ROBSize: 40, LSQSize: 16, RSESize: 32,
			NumALU: 3, NumMul: 2, NumFP: 2, NumLSU: 1,
			MispredictPenalty: 10,
			WindowCycles:      DefaultWindowCycles,
		},
		Memory: memsim.HierarchyConfig{
			L1I:        memsim.CacheConfig{Name: "L1I", SizeBytes: 16 << 10, LineBytes: 64, Assoc: 4, HitLatency: 1},
			L1D:        memsim.CacheConfig{Name: "L1D", SizeBytes: 16 << 10, LineBytes: 64, Assoc: 4, HitLatency: 2},
			L2:         memsim.CacheConfig{Name: "L2", SizeBytes: 256 << 10, LineBytes: 64, Assoc: 8, HitLatency: 12},
			MemLatency: 140,
		},
		Branch:  branchsim.Config{Kind: branchsim.Bimodal, TableBits: 10},
		Power:   powersim.SmallCoreCoefficients(),
		Supply:  powersim.DefaultSupplyModel(),
		Thermal: powersim.DefaultThermalModel(),
	}
}

// Large returns the paper's "Large" core (Table II): 8-wide front end,
// 160/64/128 ROB/LSQ/RSE, 6/4/4 ALU/SIMD/FP pipes, 32 KiB L1s, 1 MiB L2 with
// a next-line prefetcher.
func Large() CoreSpec {
	return CoreSpec{
		Kind: LargeCore,
		CPU: cpusim.Config{
			Name: string(LargeCore), FrequencyGHz: 2, FrontEndWidth: 8,
			ROBSize: 160, LSQSize: 64, RSESize: 128,
			NumALU: 6, NumMul: 4, NumFP: 4, NumLSU: 2,
			MispredictPenalty: 14,
			WindowCycles:      DefaultWindowCycles,
		},
		Memory: memsim.HierarchyConfig{
			L1I:        memsim.CacheConfig{Name: "L1I", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, HitLatency: 1},
			L1D:        memsim.CacheConfig{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, HitLatency: 2},
			L2:         memsim.CacheConfig{Name: "L2", SizeBytes: 1 << 20, LineBytes: 64, Assoc: 16, HitLatency: 14, NextLinePrefetch: true},
			MemLatency: 140,
		},
		Branch:  branchsim.Config{Kind: branchsim.GShare, TableBits: 14, HistoryBits: 12},
		Power:   powersim.LargeCoreCoefficients(),
		Supply:  powersim.DefaultSupplyModel(),
		Thermal: powersim.DefaultThermalModel(),
	}
}

// ByName returns the core spec with the given name.
func ByName(name string) (CoreSpec, error) {
	switch CoreKind(name) {
	case SmallCore:
		return Small(), nil
	case LargeCore:
		return Large(), nil
	default:
		return CoreSpec{}, fmt.Errorf("platform: unknown core %q (want %q or %q)", name, SmallCore, LargeCore)
	}
}

// Cores returns every built-in core spec.
func Cores() []CoreSpec { return []CoreSpec{Small(), Large()} }

// DefaultDynamicInstructions is the evaluation length used when the caller
// does not specify one. The paper runs clones for 10M dynamic instructions;
// this reproduction defaults to a shorter window so that a full tuning run
// (thousands of evaluations) stays laptop-scale. The steady-state loop
// behaviour is reached well before this point for 500-instruction kernels.
const DefaultDynamicInstructions = 40000

// EvalOptions controls one evaluation.
type EvalOptions struct {
	// DynamicInstructions is the number of dynamic instructions to simulate.
	// Zero means DefaultDynamicInstructions.
	DynamicInstructions int
	// Seed drives the stochastic parts of trace expansion.
	Seed int64
	// CollectPower adds the dynamic power metric to the result (requires a
	// platform with a power model).
	CollectPower bool
	// FrequencyGHz overrides the core clock for this evaluation (DVFS); zero
	// keeps the spec's clock. The cycle-level simulation is unaffected —
	// cache and memory latencies are fixed in core cycles — so the override
	// rescales the cycle results onto a different time base, which is what
	// changes power, droop and temperature.
	FrequencyGHz float64
	// Fidelity in (0,1) shortens the simulated window to that fraction of
	// DynamicInstructions (floored at MinFidelityInstructions so the window
	// still reaches loop steady state). It is an evaluation-time knob only —
	// the program and its synthesis cache key are unaffected — which is what
	// lets multi-fidelity tuners reuse synthesized kernels across rungs.
	// Zero or one means full fidelity.
	Fidelity float64
}

// MinFidelityInstructions is the shortest simulation window a reduced
// fidelity may select: enough to clear cache warmup and settle the loop
// behaviour of the ~500-instruction kernels.
const MinFidelityInstructions = 2000

// normalized fills in defaults and applies the fidelity scaling (exactly
// once: the scaled options report Fidelity == 0 so a second normalization is
// a no-op).
func (o EvalOptions) normalized() EvalOptions {
	if o.DynamicInstructions == 0 {
		o.DynamicInstructions = DefaultDynamicInstructions
	}
	if o.Fidelity > 0 && o.Fidelity < 1 {
		scaled := int(float64(o.DynamicInstructions) * o.Fidelity)
		if scaled < MinFidelityInstructions {
			scaled = MinFidelityInstructions
		}
		if scaled < o.DynamicInstructions {
			o.DynamicInstructions = scaled
		}
	}
	o.Fidelity = 0
	return o
}

// Platform is the evaluation boundary the tuning mechanism talks to: one
// request in, one response out, whatever the platform's core count.
// Implementations are not required to be safe for concurrent use (tuners
// give each worker its own platform).
type Platform interface {
	// Name identifies the platform for reports.
	Name() string
	// NumCores is the number of kernels one request runs.
	NumCores() int
	// EvaluateRequest serves one evaluation.
	EvaluateRequest(req EvalRequest) (EvalResponse, error)
}

// SimPlatform is the Gem5+McPAT substitute: a trace-driven performance
// simulation plus an activity-based power estimate.
type SimPlatform struct {
	spec CoreSpec
	// identity is EvalIdentity, rendered on its first call: a worker
	// platform that no pool or chip keys is never asked for it.
	identityOnce sync.Once
	identity     string
	cpu          *cpusim.CPU
	power        *powersim.Model
	// tracePoints backs the power trace of evaluations that do not hand
	// their trace out, and droop keeps the supply solve's windows; a
	// SimPlatform serves one evaluation at a time, so plain fields suffice.
	tracePoints []powersim.TracePoint
	droop       powersim.DroopLanes
}

// NewSimPlatform instantiates the simulator for a core spec.
func NewSimPlatform(spec CoreSpec) (*SimPlatform, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	mem, err := memsim.NewHierarchy(spec.Memory)
	if err != nil {
		return nil, err
	}
	pred, err := branchsim.New(spec.Branch)
	if err != nil {
		return nil, err
	}
	cpu, err := cpusim.New(spec.CPU, mem, pred)
	if err != nil {
		return nil, err
	}
	power, err := powersim.New(spec.Power)
	if err != nil {
		return nil, err
	}
	return &SimPlatform{spec: spec, cpu: cpu, power: power}, nil
}

// Name implements Platform.
func (s *SimPlatform) Name() string {
	return fmt.Sprintf("sim-%s", s.spec.Kind)
}

// Spec returns the platform's core specification.
func (s *SimPlatform) Spec() CoreSpec { return s.spec }

// TraceWarmupWindows is the number of leading activity windows the transient
// analyses discard as cache warmup (capped at a quarter of the trace for
// very short runs).
const TraceWarmupWindows = 16

// simulate is the cycle-domain step of an evaluation: one cpusim run of
// the kernel. Its result does not depend on the clock. With windows it
// records the activity windows a power trace is built from, which alias the
// simulator's scratch until the platform's next evaluation; without, it
// skips their bookkeeping and returns the totals alone.
func (s *SimPlatform) simulate(p *program.Program, opts EvalOptions, windows bool) (cpusim.Result, error) {
	opts = opts.normalized()
	if !windows {
		return s.cpu.RunTotals(p, opts.DynamicInstructions, opts.Seed)
	}
	return s.cpu.RunShared(p, opts.DynamicInstructions, opts.Seed)
}

// timeDomain is the time-domain step: it puts the result on the effective
// clock and turns it into the metric vector and, with power collection,
// the dynamic power metric and the untrimmed power trace. The cycle-level
// result is clock-agnostic, so relabelling its time base is all a DVFS
// override needs; everything downstream reads the result's clock.
// sharedTrace builds the trace in the platform's buffer, for callers that
// are done with it before the next evaluation.
func (s *SimPlatform) timeDomain(res *cpusim.Result, opts EvalOptions, sharedTrace bool) (metrics.Vector, powersim.PowerTrace) {
	onClock(res, opts)
	v := ResultVector(*res)
	if !opts.CollectPower {
		return v, powersim.PowerTrace{}
	}
	v[metrics.DynamicPowerW] = s.power.DynamicPower(*res)
	if !sharedTrace {
		return v, s.power.Trace(*res)
	}
	return v, s.sharedTrace(*res)
}

// onClock relabels the result's time base with the options' clock override.
func onClock(res *cpusim.Result, opts EvalOptions) {
	if opts.FrequencyGHz > 0 {
		res.Config.FrequencyGHz = opts.FrequencyGHz
	}
}

// sharedTrace builds the result's power trace in the platform's buffer; it
// stays valid until the platform's next evaluation.
func (s *SimPlatform) sharedTrace(res cpusim.Result) powersim.PowerTrace {
	trace := s.power.TraceInto(res, s.tracePoints)
	s.tracePoints = trace.Points
	return trace
}

// addTransientMetrics is the transient step: worst-case supply droop,
// maximum dI/dt step and steady-state hotspot temperature, derived from the
// warm-up-trimmed trace whenever the run recorded activity windows.
func (s *SimPlatform) addTransientMetrics(v metrics.Vector, trace powersim.PowerTrace) {
	if trace.Empty() {
		return
	}
	steady := trace.TrimWarmupCapped(TraceWarmupWindows)
	// A one-lane DroopLanes solve is WorstDroopMV bit for bit, on windows
	// the platform keeps.
	v[metrics.WorstDroopMV] = s.droop.WorstDroopsMV([]powersim.SupplyModel{s.spec.Supply}, []powersim.PowerTrace{steady})[0]
	v[metrics.MaxDIDTWPerCycle] = steady.MaxStepWPerCycle()
	v[metrics.TempC] = s.spec.Thermal.SteadyTempC(steady)
}

// EvaluateCore serves one core of a chip evaluation: the cycle-domain and
// time-domain steps only, reduced to what the chip reads. It returns the
// core's IPC and dynamic power and its untrimmed power trace; the transient
// metrics are left to the chip, which reports none of them per core except
// the droop it solves itself. The trace lives in the platform's buffer and
// stays valid until the platform's next evaluation. The chip always reads
// the trace, so the run records its windows whatever opts.CollectPower says.
func (s *SimPlatform) EvaluateCore(p *program.Program, opts EvalOptions) (ipc, powerW float64, trace powersim.PowerTrace, err error) {
	res, err := s.simulate(p, opts, true)
	if err != nil {
		return 0, 0, powersim.PowerTrace{}, err
	}
	onClock(&res, opts)
	return res.IPC(), s.power.DynamicPower(res), s.sharedTrace(res), nil
}

// CoreMetricsNoPower names the metrics every single-core evaluation
// reports, and CoreMetrics those it reports with power collection on: the
// dynamic power and the three transient metrics besides.
var (
	CoreMetricsNoPower = []string{
		metrics.IPC, metrics.CPI, metrics.Instructions, metrics.Cycles,
		metrics.FracInteger, metrics.FracFloat, metrics.FracLoad, metrics.FracStore, metrics.FracBranch, metrics.FracNop,
		metrics.BranchMispredictRate, metrics.L1IHitRate, metrics.L1DHitRate, metrics.L2HitRate,
	}
	CoreMetrics = append(slices.Clip(CoreMetricsNoPower),
		metrics.DynamicPowerW, metrics.WorstDroopMV, metrics.MaxDIDTWPerCycle, metrics.TempC)
)

// ResultVector converts a raw simulation result into the standard metric
// vector, sized so the power and transient metrics fit without regrowing it.
func ResultVector(res cpusim.Result) metrics.Vector {
	v := make(metrics.Vector, len(CoreMetrics))
	v[metrics.IPC] = res.IPC()
	v[metrics.CPI] = res.CPI()
	v[metrics.Instructions] = float64(res.Instructions)
	v[metrics.Cycles] = float64(res.Cycles)
	v[metrics.FracInteger] = res.ClassFraction(isa.ClassInteger)
	v[metrics.FracFloat] = res.ClassFraction(isa.ClassFloat)
	v[metrics.FracLoad] = res.ClassFraction(isa.ClassLoad)
	v[metrics.FracStore] = res.ClassFraction(isa.ClassStore)
	v[metrics.FracBranch] = res.ClassFraction(isa.ClassBranch)
	v[metrics.FracNop] = res.ClassFraction(isa.ClassNop)
	v[metrics.BranchMispredictRate] = res.Branch.MispredictRate()
	v[metrics.L1IHitRate] = res.L1I.HitRate()
	v[metrics.L1DHitRate] = res.L1D.HitRate()
	v[metrics.L2HitRate] = res.L2.HitRate()
	return v
}
