package platform

import (
	"slices"
	"testing"

	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/microprobe"
	"micrograd/internal/program"
)

func testProgram(t *testing.T) *program.Program {
	t.Helper()
	cfg := knobs.DefaultSpace().MidConfig()
	p, err := microprobe.NewSynthesizer(microprobe.Options{LoopSize: 250, Seed: 3}).Synthesize("platform-test", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// evalMetrics serves one single-kernel, metrics-only request.
func evalMetrics(plat Platform, prog *program.Program, opts EvalOptions) (metrics.Vector, error) {
	resp, err := plat.EvaluateRequest(EvalRequest{Programs: []*program.Program{prog}, Options: opts})
	return resp.Metrics, err
}

func TestCoreSpecs(t *testing.T) {
	small := Small()
	large := Large()
	if err := small.Validate(); err != nil {
		t.Errorf("small spec invalid: %v", err)
	}
	if err := large.Validate(); err != nil {
		t.Errorf("large spec invalid: %v", err)
	}
	// Table II relationships.
	if large.CPU.FrontEndWidth <= small.CPU.FrontEndWidth {
		t.Error("large core should be wider")
	}
	if large.CPU.ROBSize != 160 || small.CPU.ROBSize != 40 {
		t.Error("ROB sizes should follow Table II (160 / 40)")
	}
	if large.Memory.L2.SizeBytes != 1<<20 || small.Memory.L2.SizeBytes != 256<<10 {
		t.Error("L2 sizes should follow Table II (1M / 256k)")
	}
	if !large.Memory.L2.NextLinePrefetch || small.Memory.L2.NextLinePrefetch {
		t.Error("only the large core has a prefetcher")
	}
	if small.CPU.FrequencyGHz != 2 || large.CPU.FrequencyGHz != 2 {
		t.Error("both cores run at 2 GHz")
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("small"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("large"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("huge"); err == nil {
		t.Error("unknown core should be rejected")
	}
	if len(Cores()) != 2 {
		t.Error("Cores() should return both built-in cores")
	}
}

func TestSpecValidateRejectsBroken(t *testing.T) {
	s := Small()
	s.Kind = ""
	if err := s.Validate(); err == nil {
		t.Error("missing kind should be rejected")
	}
	s2 := Small()
	s2.CPU.FrontEndWidth = 0
	if err := s2.Validate(); err == nil {
		t.Error("invalid CPU config should be rejected")
	}
	s3 := Small()
	s3.Memory.MemLatency = 0
	if _, err := NewSimPlatform(s3); err == nil {
		t.Error("invalid memory config should be rejected at construction")
	}
}

func TestSimPlatformEvaluate(t *testing.T) {
	plat, err := NewSimPlatform(Large())
	if err != nil {
		t.Fatal(err)
	}
	if plat.Name() != "sim-large" {
		t.Errorf("Name = %q", plat.Name())
	}
	p := testProgram(t)
	v, err := evalMetrics(plat, p, EvalOptions{DynamicInstructions: 10000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range metrics.CloningMetricNames() {
		if _, ok := v[name]; !ok {
			t.Errorf("metric %q missing from evaluation", name)
		}
	}
	if v[metrics.IPC] <= 0 {
		t.Error("IPC should be positive")
	}
	if _, ok := v[metrics.DynamicPowerW]; ok {
		t.Error("power should not be collected unless requested")
	}
}

func TestSimPlatformPowerCollection(t *testing.T) {
	plat, _ := NewSimPlatform(Large())
	p := testProgram(t)
	resp, err := plat.EvaluateRequest(EvalRequest{
		Programs: []*program.Program{p},
		Options:  EvalOptions{DynamicInstructions: 10000, Seed: 1, CollectPower: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	pw, ok := resp.Metrics[metrics.DynamicPowerW]
	if !ok || pw <= 0 {
		t.Errorf("dynamic power missing or non-positive: %v", pw)
	}
	if pw > 5 {
		t.Errorf("dynamic power %.2f W implausibly high for the large core", pw)
	}
	if n := resp.Metrics[metrics.Instructions]; n != 10000 {
		t.Errorf("evaluated instructions = %v", n)
	}
}

// TestCoreMetricsAreWhatAnEvaluationReports pins the exported name lists to
// the keys of real evaluation vectors, on both cores, with power collection
// off (CoreMetricsNoPower) and on (CoreMetrics).
func TestCoreMetricsAreWhatAnEvaluationReports(t *testing.T) {
	p := testProgram(t)
	for _, spec := range Cores() {
		plat, err := NewSimPlatform(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, power := range []bool{false, true} {
			want := CoreMetricsNoPower
			if power {
				want = CoreMetrics
			}
			v, err := evalMetrics(plat, p, EvalOptions{DynamicInstructions: 4000, Seed: 1, CollectPower: power})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := v.Names(), slices.Sorted(slices.Values(want)); !slices.Equal(got, want) {
				t.Errorf("%s core, power %v: vector carries %v, the list names %v", spec.Kind, power, got, want)
			}
		}
	}
}

func TestSimPlatformDeterministicAcrossCalls(t *testing.T) {
	plat, _ := NewSimPlatform(Small())
	p := testProgram(t)
	a, err := evalMetrics(plat, p, EvalOptions{DynamicInstructions: 8000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := evalMetrics(plat, p, EvalOptions{DynamicInstructions: 8000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for k, av := range a {
		if b[k] != av {
			t.Errorf("metric %s differs across identical evaluations: %v vs %v", k, av, b[k])
		}
	}
}

func TestSmallVsLargeIPC(t *testing.T) {
	small, _ := NewSimPlatform(Small())
	large, _ := NewSimPlatform(Large())
	p := testProgram(t)
	vs, err := evalMetrics(small, p, EvalOptions{DynamicInstructions: 15000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	vl, err := evalMetrics(large, p, EvalOptions{DynamicInstructions: 15000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if vl[metrics.IPC] <= vs[metrics.IPC] {
		t.Errorf("large core IPC %.3f should exceed small core IPC %.3f", vl[metrics.IPC], vs[metrics.IPC])
	}
}

func TestNativeStub(t *testing.T) {
	stub := NativeStub{Canned: metrics.Vector{metrics.IPC: 1.2}}
	if stub.Name() != "native-stub" {
		t.Error("stub name wrong")
	}
	p := testProgram(t)
	v, err := evalMetrics(stub, p, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v[metrics.IPC] != 1.2 {
		t.Error("stub should replay canned metrics")
	}
	v[metrics.IPC] = 9
	v2, _ := evalMetrics(stub, p, EvalOptions{})
	if v2[metrics.IPC] != 1.2 {
		t.Error("stub must not let callers mutate its canned metrics")
	}
	if _, err := evalMetrics(stub, program.New("empty"), EvalOptions{}); err == nil {
		t.Error("empty program should be rejected")
	}
	if _, err := evalMetrics(NativeStub{}, p, EvalOptions{}); err == nil {
		t.Error("stub without canned metrics should error")
	}
}

func TestEvalOptionsDefaults(t *testing.T) {
	o := EvalOptions{}.normalized()
	if o.DynamicInstructions != DefaultDynamicInstructions {
		t.Errorf("default dynamic instructions = %d", o.DynamicInstructions)
	}
	o2 := EvalOptions{DynamicInstructions: 123}.normalized()
	if o2.DynamicInstructions != 123 {
		t.Error("explicit dynamic instruction count overridden")
	}
}
