package platform_test

import (
	"fmt"
	"reflect"
	"testing"

	"micrograd/internal/branchsim"
	"micrograd/internal/cpusim"
	"micrograd/internal/knobs"
	"micrograd/internal/memsim"
	"micrograd/internal/microprobe"
	"micrograd/internal/multicore"
	"micrograd/internal/platform"
	"micrograd/internal/powersim"
	"micrograd/internal/program"
)

const (
	reqLoopSize = 200
	reqInstr    = 2000
	reqSeed     = int64(7)
)

func reqKernel(t *testing.T, name string, cfg knobs.Config) *program.Program {
	t.Helper()
	syn := microprobe.NewSynthesizer(microprobe.Options{LoopSize: reqLoopSize, Seed: reqSeed})
	p, err := syn.Synthesize(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func reqSinglePlatform(t *testing.T) *platform.SimPlatform {
	t.Helper()
	plat, err := platform.NewSimPlatform(platform.Small())
	if err != nil {
		t.Fatal(err)
	}
	return plat
}

func reqCoRunPlatform(t *testing.T) *multicore.CoRunPlatform {
	t.Helper()
	c, err := multicore.New(multicore.Homogeneous(platform.Small(), 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEvalRequestMatrix checks every detail level on both platform shapes,
// with and without clock overrides, against request-path invariants: the
// metric vector does not depend on the detail level, and only DetailTrace
// carries a trace.
func TestEvalRequestMatrix(t *testing.T) {
	cfg := knobs.StressSpace().MidConfig()
	powerOpts := platform.EvalOptions{DynamicInstructions: reqInstr, Seed: reqSeed, CollectPower: true}
	details := []platform.EvalDetail{platform.DetailMetrics, platform.DetailTrace}

	// check serves req at every detail level on fresh platforms and compares
	// each response against the metrics-only one; subtests are named
	// "<detail>-<variant>".
	check := func(t *testing.T, newPlat func(*testing.T) platform.Platform, req platform.EvalRequest, variant string) {
		t.Helper()
		serve := func(detail platform.EvalDetail) platform.EvalResponse {
			t.Helper()
			r := req
			r.Detail = detail
			resp, err := newPlat(t).EvaluateRequest(r)
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}
		base := serve(platform.DetailMetrics)
		for _, detail := range details {
			t.Run(detail.String()+"-"+variant, func(t *testing.T) {
				resp := serve(detail)
				if !reflect.DeepEqual(resp.Metrics, base.Metrics) {
					t.Errorf("%s metrics diverge from metrics-only:\n got %v\nwant %v", detail, resp.Metrics, base.Metrics)
				}
				if detail >= platform.DetailTrace {
					if len(resp.Trace.Points) == 0 {
						t.Errorf("%s response carries no trace", detail)
					}
				} else if len(resp.Trace.Points) != 0 {
					t.Error("metrics-only response carries a trace")
				}
			})
		}
	}

	t.Run("single", func(t *testing.T) {
		p := reqKernel(t, "req-single", cfg)
		single := func(t *testing.T) platform.Platform { return reqSinglePlatform(t) }
		for _, freq := range []float64{0, 1.5} {
			req := platform.EvalRequest{Programs: []*program.Program{p}, Options: powerOpts}
			req.Options.FrequencyGHz = freq
			check(t, single, req, fmt.Sprintf("freq%g", freq))
		}
	})

	t.Run("corun", func(t *testing.T) {
		progs := []*program.Program{
			reqKernel(t, "req-core0", cfg),
			reqKernel(t, "req-core1", cfg),
		}
		chip := func(t *testing.T) platform.Platform { return reqCoRunPlatform(t) }
		for _, freqs := range [][]float64{nil, {1.2, 1.8}} {
			check(t, chip, platform.EvalRequest{Programs: progs, FreqOverrides: freqs, Options: powerOpts}, fmt.Sprintf("freqs%v", freqs != nil))
		}
	})
}

// TestSingleCoreTraceIsResultTrace checks that the trace a single-core
// response carries — the one the power metrics were derived from — is the
// power model's trace of the simulator's raw result, clock overrides
// included.
func TestSingleCoreTraceIsResultTrace(t *testing.T) {
	p := reqKernel(t, "req-trace", knobs.StressSpace().MidConfig())
	spec := platform.Small()
	model, err := powersim.New(spec.Power)
	if err != nil {
		t.Fatal(err)
	}
	for _, freq := range []float64{0, 1.5} {
		opts := platform.EvalOptions{DynamicInstructions: reqInstr, Seed: reqSeed, FrequencyGHz: freq}
		resp, err := reqSinglePlatform(t).EvaluateRequest(platform.EvalRequest{
			Programs: []*program.Program{p},
			Options:  opts,
			Detail:   platform.DetailTrace,
		})
		if err != nil {
			t.Fatal(err)
		}
		mem, err := memsim.NewHierarchy(spec.Memory)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := branchsim.New(spec.Branch)
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := cpusim.New(spec.CPU, mem, pred)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cpu.RunShared(p, reqInstr, reqSeed)
		if err != nil {
			t.Fatal(err)
		}
		if freq > 0 {
			res.Config.FrequencyGHz = freq
		}
		if want := model.Trace(res); len(want.Points) == 0 || !reflect.DeepEqual(resp.Trace, want) {
			t.Errorf("freq %g: response trace diverges from the model trace of the raw result", freq)
		}
	}
}

// TestEvalSessionDeterminism re-serves the same config-driven request three
// times through one session and checks every response is bit-identical — the
// memoized kernels and reused scratch must not leak state between calls.
func TestEvalSessionDeterminism(t *testing.T) {
	cfg := knobs.StressSpace().MidConfig()
	opts := platform.EvalOptions{DynamicInstructions: reqInstr, Seed: reqSeed, CollectPower: true}
	syn := microprobe.NewCachingSynthesizer(microprobe.Options{LoopSize: reqLoopSize, Seed: reqSeed})
	session := platform.NewEvalSession(reqSinglePlatform(t), syn)

	req := platform.EvalRequest{Name: "req-determinism", Config: cfg, Options: opts, Detail: platform.DetailTrace}
	first, err := session.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		resp, err := session.Evaluate(req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Metrics, first.Metrics) {
			t.Errorf("repeat %d metrics diverge:\n got %v\nwant %v", i, resp.Metrics, first.Metrics)
		}
		if !reflect.DeepEqual(resp.Trace, first.Trace) {
			t.Errorf("repeat %d trace diverges", i)
		}
	}
	hits, misses := syn.Stats()
	if misses != 1 || hits != 2 {
		t.Errorf("synthesis memo: %d hits / %d misses, want 2 / 1", hits, misses)
	}

	// A cold evaluation — fresh platform, fresh plain synthesizer — must
	// produce the same metrics as the warm session.
	cold, err := reqSinglePlatform(t).EvaluateRequest(platform.EvalRequest{
		Programs: []*program.Program{reqKernel(t, "req-determinism", cfg)},
		Options:  opts,
		Detail:   platform.DetailTrace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Metrics, first.Metrics) {
		t.Errorf("cold evaluation diverges from warm session:\n got %v\nwant %v", cold.Metrics, first.Metrics)
	}
}

// TestEvalSessionCoRunMatchesLegacyEvaluateConfig pins the config-driven
// co-run session path to the deprecated EvaluateConfig (kept for the
// stress package's chip marker): same per-core
// kernels, same clock overrides, same chip metrics.
func TestEvalSessionCoRunMatchesLegacyEvaluateConfig(t *testing.T) {
	space := knobs.DVFSStressSpace(2)
	cfg := space.MidConfig()
	opts := platform.EvalOptions{DynamicInstructions: reqInstr, Seed: reqSeed, CollectPower: true}

	csyn := microprobe.NewCachingSynthesizer(microprobe.Options{LoopSize: reqLoopSize, Seed: reqSeed})
	session := platform.NewEvalSession(reqCoRunPlatform(t), csyn)
	resp, err := session.Evaluate(platform.EvalRequest{Name: "req-dvfs", Config: cfg, Options: opts})
	if err != nil {
		t.Fatal(err)
	}

	syn := microprobe.NewSynthesizer(microprobe.Options{LoopSize: reqLoopSize, Seed: reqSeed})
	want, err := reqCoRunPlatform(t).EvaluateConfig("req-dvfs", cfg, syn, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Metrics, want) {
		t.Errorf("session co-run diverges from EvaluateConfig:\n got %v\nwant %v", resp.Metrics, want)
	}
}

// TestEvalSessionSteadyStateAllocs pins the warm hot path: after the first
// evaluation synthesizes and caches the kernel, repeat evaluations must stay
// within a small constant allocation budget (the metric vector itself).
func TestEvalSessionSteadyStateAllocs(t *testing.T) {
	cfg := knobs.StressSpace().MidConfig()
	opts := platform.EvalOptions{DynamicInstructions: reqInstr, Seed: reqSeed}
	syn := microprobe.NewCachingSynthesizer(microprobe.Options{LoopSize: reqLoopSize, Seed: reqSeed})
	session := platform.NewEvalSession(reqSinglePlatform(t), syn)
	req := platform.EvalRequest{Name: "req-allocs", Config: cfg, Options: opts}
	if _, err := session.Evaluate(req); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := session.Evaluate(req); err != nil {
			t.Fatal(err)
		}
	})
	// The response's metric vector is freshly built each call (callers keep
	// it); everything else — programs, simulator scratch, windows — is
	// reused.
	const maxAllocs = 16
	if avg > maxAllocs {
		t.Errorf("steady-state session evaluation allocates %.1f objects/op, want <= %d", avg, maxAllocs)
	}
}

// TestNativeStubRequestPath checks the stub's request support: canned
// metrics at DetailMetrics, errors above.
func TestNativeStubRequestPath(t *testing.T) {
	stub := platform.NativeStub{Canned: map[string]float64{"ipc": 2}}
	if stub.NumCores() != 1 {
		t.Error("native stub should report one core")
	}
	cfg := knobs.StressSpace().MidConfig()
	p := reqKernel(t, "req-stub", cfg)
	resp, err := stub.EvaluateRequest(platform.EvalRequest{Programs: []*program.Program{p}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Metrics["ipc"] != 2 {
		t.Errorf("stub metrics = %v", resp.Metrics)
	}
	if _, err := stub.EvaluateRequest(platform.EvalRequest{
		Programs: []*program.Program{p}, Detail: platform.DetailTrace,
	}); err == nil {
		t.Error("native stub should reject trace detail")
	}
	if _, err := stub.EvaluateRequest(platform.EvalRequest{}); err == nil {
		t.Error("native stub should reject empty requests")
	}
}

// TestEvalSessionAccessors covers the session's introspection surface: a
// synthesizer-less session rejects configuration requests, and every detail
// level has a name.
func TestEvalSessionAccessors(t *testing.T) {
	session := platform.NewEvalSession(reqSinglePlatform(t), nil)
	if _, err := session.Evaluate(platform.EvalRequest{Config: knobs.StressSpace().MidConfig()}); err == nil {
		t.Error("a session without a synthesizer should reject a configuration request")
	}
	for _, d := range []platform.EvalDetail{platform.DetailMetrics, platform.DetailTrace, platform.EvalDetail(9)} {
		if d.String() == "" {
			t.Errorf("detail %d has no name", uint8(d))
		}
	}
}

// TestCoRunRequestErrors covers the co-run request validation paths.
func TestCoRunRequestErrors(t *testing.T) {
	c := reqCoRunPlatform(t)
	if _, err := c.EvaluateRequest(platform.EvalRequest{}); err == nil {
		t.Error("empty co-run request should be rejected")
	}
	cfg := knobs.StressSpace().MidConfig()
	if _, err := c.EvaluateRequest(platform.EvalRequest{Config: cfg}); err == nil {
		t.Error("config-only co-run request should point at EvalSession")
	}
	p := reqKernel(t, "req-corun-err", cfg)
	if _, err := c.EvaluateRequest(platform.EvalRequest{
		Programs: []*program.Program{p, p, p},
	}); err == nil {
		t.Error("three kernels on a two-core chip should be rejected")
	}
	if _, err := c.EvaluateRequest(platform.EvalRequest{
		Programs:      []*program.Program{p, p},
		FreqOverrides: []float64{1.0},
	}); err == nil {
		t.Error("override/core count mismatch should be rejected")
	}
}

// TestEvalRequestErrors covers the request validation paths.
func TestEvalRequestErrors(t *testing.T) {
	plat := reqSinglePlatform(t)
	if _, err := plat.EvaluateRequest(platform.EvalRequest{}); err == nil {
		t.Error("empty request should be rejected")
	}
	cfg := knobs.StressSpace().MidConfig()
	if _, err := plat.EvaluateRequest(platform.EvalRequest{Config: cfg}); err == nil {
		t.Error("config-only request on a bare platform should point at EvalSession")
	}
	p := reqKernel(t, "req-err", cfg)
	if _, err := plat.EvaluateRequest(platform.EvalRequest{
		Programs: []*program.Program{p, p},
	}); err == nil {
		t.Error("two kernels on a single-core platform should be rejected")
	}
	if _, err := plat.EvaluateRequest(platform.EvalRequest{
		Programs:      []*program.Program{p},
		FreqOverrides: []float64{-1},
	}); err == nil {
		t.Error("negative clock override should be rejected")
	}
	if _, err := plat.EvaluateRequest(platform.EvalRequest{
		Programs:      []*program.Program{p},
		FreqOverrides: []float64{1.5},
	}); err == nil {
		t.Error("a clock override on a single-core platform should be rejected: its clock is Options.FrequencyGHz")
	}

	sessionless := platform.NewEvalSession(plat, nil)
	if _, err := sessionless.Evaluate(platform.EvalRequest{Config: cfg}); err == nil {
		t.Error("config request on a synthesizer-less session should be rejected")
	}
	if _, err := sessionless.Evaluate(platform.EvalRequest{}); err == nil {
		t.Error("empty session request should be rejected")
	}
}

// kernelNamesPlatform is a two-core platform that records the kernel names
// of the last request it served.
type kernelNamesPlatform struct{ names []string }

func (*kernelNamesPlatform) Name() string  { return "kernel-names" }
func (*kernelNamesPlatform) NumCores() int { return 2 }

func (p *kernelNamesPlatform) EvaluateRequest(req platform.EvalRequest) (platform.EvalResponse, error) {
	p.names = p.names[:0]
	for _, k := range req.Programs {
		p.names = append(p.names, k.Name)
	}
	return platform.EvalResponse{}, nil
}

// TestEvalSessionKernelNamesFollowRequestName pins the session's kept
// per-core kernel names: core i's kernel is "<name>-core<i>" of the
// request being served, also after the request name changes.
func TestEvalSessionKernelNamesFollowRequestName(t *testing.T) {
	plat := &kernelNamesPlatform{}
	session := platform.NewEvalSession(plat, microprobe.NewCachingSynthesizer(microprobe.Options{LoopSize: reqLoopSize, Seed: reqSeed}))
	cfg := knobs.CoRunStressSpace(2).MidConfig()
	for _, name := range []string{"first", "first", "second", ""} {
		if _, err := session.Evaluate(platform.EvalRequest{Name: name, Config: cfg}); err != nil {
			t.Fatal(err)
		}
		if want := []string{name + "-core0", name + "-core1"}; !reflect.DeepEqual(plat.names, want) {
			t.Errorf("request %q: kernels named %q, want %q", name, plat.names, want)
		}
	}
}
