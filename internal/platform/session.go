package platform

import (
	"fmt"

	"micrograd/internal/knobs"
	"micrograd/internal/microprobe"
	"micrograd/internal/program"
)

// EvalSession is the reusable front door of the evaluation API: it binds a
// platform (single-core or co-run) to a memoizing kernel synthesizer and
// serves EvalRequests end to end. Config-driven requests synthesize one
// kernel per core — honouring the per-core PHASE_OFFSET knobs and deriving
// FREQ_GHZ clock overrides — and candidates that differ only in
// evaluation-time knobs reuse the memoized programs, which in turn lets the
// simulator skip re-validating and re-predecoding them.
//
// Like the platforms it wraps, a session is not safe for concurrent use:
// tuners give each worker its own session (the synthesizer memo inside is
// thread-safe, so sessions may share one CachingSynthesizer if desired).
type EvalSession struct {
	plat Platform
	syn  *microprobe.CachingSynthesizer
	// progs is the per-request kernel scratch, reused across evaluations so
	// the Config-driven hot path allocates no program slice; names are the
	// per-core kernel names of request name namesOf, kept until the name
	// changes.
	progs   []*program.Program
	names   []string
	namesOf string
}

// NewEvalSession binds a platform to a kernel synthesizer. syn may be nil
// when every request carries explicit Programs.
func NewEvalSession(plat Platform, syn *microprobe.CachingSynthesizer) *EvalSession {
	return &EvalSession{plat: plat, syn: syn}
}

// Evaluate serves one request. Requests without Programs are synthesized
// from their Config first; the response is whatever the platform produced.
func (s *EvalSession) Evaluate(req EvalRequest) (EvalResponse, error) {
	if len(req.Programs) == 0 {
		if req.Config.IsZero() {
			return EvalResponse{}, fmt.Errorf("platform: request carries neither programs nor a configuration")
		}
		if s.syn == nil {
			return EvalResponse{}, fmt.Errorf("platform: session without a synthesizer cannot serve configuration requests")
		}
		if err := s.synthesize(&req); err != nil {
			return EvalResponse{}, err
		}
	}
	return s.plat.EvaluateRequest(req)
}

// synthesize fills req.Programs (and, on multi-core platforms, missing
// FreqOverrides) from req.Config. Single-core platforms get one kernel named
// req.Name from the shared settings; multi-core platforms get one kernel per
// core from SynthesizeCores.
func (s *EvalSession) synthesize(req *EvalRequest) error {
	n := s.plat.NumCores()
	if cap(s.progs) < n {
		s.progs = make([]*program.Program, n)
	}
	progs := s.progs[:n]
	if n == 1 {
		p, err := s.syn.Synthesize(req.Name, req.Config)
		if err != nil {
			return err
		}
		progs[0] = p
		req.Programs = progs
		return nil
	}
	if len(s.names) != n || s.namesOf != req.Name {
		s.names, s.namesOf = make([]string, n), req.Name
		CoreKernelNames(s.names, req.Name)
	}
	if err := SynthesizeCores(progs, s.names, req.Config, s.syn); err != nil {
		return err
	}
	req.Programs = progs
	if req.FreqOverrides == nil {
		req.FreqOverrides = FreqOverrides(req.Config, n)
	}
	return nil
}

// CoreKernelNames fills names with the per-core kernel names of a co-run
// request named name: "<name>-core<i>" for core i.
func CoreKernelNames(names []string, name string) {
	for i := range names {
		names[i] = fmt.Sprintf("%s-core%d", name, i)
	}
}

// SynthesizeCores fills progs, one entry per core, with the kernels of a
// co-run configuration: cfg's shared kernel shape, core i's kernel named
// names[i] (see CoreKernelNames) and its burst schedule rotated by its
// PHASE_OFFSET_<i> knob. The caller owns progs and names, so a session
// reuses them across evaluations.
func SynthesizeCores(progs []*program.Program, names []string, cfg knobs.Config, syn interface {
	SynthesizeSettings(name string, set knobs.Settings) (*program.Program, error)
}) error {
	set := cfg.Settings()
	for i := range progs {
		coreSet := set
		if off, ok := cfg.ValueByName(knobs.PhaseOffsetName(i)); ok {
			coreSet.PhaseOffset = int(off)
		}
		p, err := syn.SynthesizeSettings(names[i], coreSet)
		if err != nil {
			return fmt.Errorf("platform: synthesizing core %d kernel: %w", i, err)
		}
		progs[i] = p
	}
	return nil
}
