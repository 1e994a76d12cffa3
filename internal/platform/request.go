package platform

import (
	"fmt"
	"math"

	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/powersim"
	"micrograd/internal/program"
)

// EvalDetail selects how much of an evaluation's output the caller needs.
// DetailTrace costs more than DetailMetrics: it materializes a power trace
// the response owns.
type EvalDetail uint8

const (
	// DetailMetrics returns the metric vector only (the tuning hot path).
	DetailMetrics EvalDetail = iota
	// DetailTrace additionally returns the untrimmed power trace (for
	// single-core platforms the core trace, for co-run platforms the summed
	// chip trace).
	DetailTrace
)

// String names the detail level.
func (d EvalDetail) String() string {
	switch d {
	case DetailMetrics:
		return "metrics"
	case DetailTrace:
		return "trace"
	default:
		return fmt.Sprintf("detail(%d)", uint8(d))
	}
}

// EvalRequest is the one evaluation input: every platform — single-core or
// co-run — serves it through EvaluateRequest. A request names its workload either as
// explicit per-core kernels (Programs) or as a knob configuration (Config),
// which an EvalSession synthesizes — with memoization — before forwarding.
type EvalRequest struct {
	// Name labels synthesized kernels (per-core kernels are named
	// "<name>-core<i>" on multi-core platforms). Ignored when Programs is
	// set.
	Name string
	// Programs are the per-core kernels, one per core of the platform.
	Programs []*program.Program
	// Config is the knob configuration to synthesize kernels from when
	// Programs is empty. Only EvalSession serves Config-driven requests
	// (platforms own no synthesizer).
	Config knobs.Config
	// FreqOverrides optionally overrides per-core clocks of a multi-core
	// platform in GHz (zero entries keep the default clock, nil overrides
	// nothing). Single-core platforms reject it: their clock is
	// Options.FrequencyGHz.
	FreqOverrides []float64
	// Options are the shared evaluation options (instructions, seed, power
	// collection). DetailTrace forces power collection.
	Options EvalOptions
	// Detail selects the response payload.
	Detail EvalDetail
}

// EvalResponse is the one evaluation output.
type EvalResponse struct {
	// Metrics is the measured metric vector (always present).
	Metrics metrics.Vector
	// Trace is the untrimmed power trace; valid for Detail >= DetailTrace.
	Trace powersim.PowerTrace
}

// RequestEvaluator is another name for Platform, from when the request
// boundary was a separate interface; the benchmark module's platform
// wrappers are written against it.
type RequestEvaluator = Platform

// FreqOverrides extracts the per-core FREQ_GHZ knob values of a configuration
// as clock overrides. It returns nil when the space tunes no frequencies;
// cores whose knob is absent keep a zero (no-override) entry.
func FreqOverrides(cfg knobs.Config, cores int) []float64 {
	var freqs []float64
	for i := 0; i < cores; i++ {
		f, ok := cfg.ValueByName(knobs.FreqGHzName(i))
		if !ok {
			continue
		}
		if freqs == nil {
			freqs = make([]float64, cores)
		}
		freqs[i] = f
	}
	return freqs
}

// ValidFreqOverride rejects clock overrides that are not zero (keep the spec
// clock) or a positive finite frequency.
func ValidFreqOverride(f float64, core int) error {
	if f != 0 && (!(f > 0) || math.IsInf(f, 0)) { // !(f>0) also catches NaN
		return fmt.Errorf("platform: bad clock override %g GHz for core %d (want 0 or positive and finite)", f, core)
	}
	return nil
}

// NumCores implements Platform.
func (s *SimPlatform) NumCores() int { return 1 }

// EvaluateRequest implements Platform for the single-core simulator.
func (s *SimPlatform) EvaluateRequest(req EvalRequest) (EvalResponse, error) {
	if len(req.Programs) == 0 {
		if !req.Config.IsZero() {
			return EvalResponse{}, fmt.Errorf("platform: %s cannot synthesize kernels from a configuration; use an EvalSession", s.Name())
		}
		return EvalResponse{}, fmt.Errorf("platform: request without programs")
	}
	if len(req.Programs) != 1 {
		return EvalResponse{}, fmt.Errorf("platform: %d kernels for the single-core platform %s", len(req.Programs), s.Name())
	}
	if len(req.FreqOverrides) > 0 {
		return EvalResponse{}, fmt.Errorf("platform: clock overrides for the single-core platform %s (set Options.FrequencyGHz)", s.Name())
	}
	opts := req.Options
	if req.Detail >= DetailTrace {
		opts.CollectPower = true
	}
	// Only the power trace reads activity windows.
	res, err := s.simulate(req.Programs[0], opts, opts.CollectPower)
	if err != nil {
		return EvalResponse{}, err
	}
	v, trace := s.timeDomain(&res, opts, req.Detail < DetailTrace)
	if opts.CollectPower {
		s.addTransientMetrics(v, trace)
	}
	resp := EvalResponse{Metrics: v}
	if req.Detail >= DetailTrace {
		resp.Trace = trace
	}
	return resp, nil
}
