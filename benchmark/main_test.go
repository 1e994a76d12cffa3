package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeRunsEveryWorkload runs all four workloads at smoke scale, traced
// and untraced, and checks the result line: every metric of the mode by
// name and no failed operation. Smoke runs check no pins.
func TestSmokeRunsEveryWorkload(t *testing.T) {
	for _, w := range allWorkloads {
		for _, tc := range []struct {
			trace string
			defs  []metricDef
		}{{"0", endToEndMetrics}, {"1", perLayerMetrics}} {
			t.Run(w.name+"/trace="+tc.trace, func(t *testing.T) {
				dir := t.TempDir()
				args := []string{"--workload", w.name, "--seed", "3", "--seconds", "0.2", "--scale", "smoke",
					"--trace", tc.trace, "--trace-dir", dir}
				if tc.trace == "1" {
					args = append(args, "--cpuprofile", "--memprofile")
				}
				var out, errOut bytes.Buffer
				if code := runBench(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d: %s\n%s", code, errOut.String(), out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("result correct=%t attempted=%d failed=%d (failed_frac must be 0):\n%s",
						res.Correct, res.Attempted, res.Failed, out.String())
				}
				if len(res.Metrics) != len(tc.defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(tc.defs))
				}
				for _, d := range tc.defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v (present %t), want unit %s", d.name, m, ok, d.unit)
					}
				}
				if tc.trace == "1" {
					if !strings.Contains(out.String(), " 0 mismatches;") {
						t.Errorf("the replay did not reproduce every in-situ result:\n%s", out.String())
					}
					for _, f := range []string{"trace.json", "cpu.pprof", "mem.pprof"} {
						if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
							t.Errorf("trace directory: %v", err)
						}
					}
				}
			})
		}
	}
}

func TestParseFlagsRejectsBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "w", "--trace", "2"},
		{"--workload", "w", "--cpuprofile"},
		{"--workload", "w", "--scale", "huge"},
		{"--workload", "w", "--seconds", "0"},
		{"--workload", "w", "--scale", "smoke", "--update"},
		{"--workload", "w", "extra"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
	if code := runBench([]string{"--workload", "nope"}, io.Discard, io.Discard); code == 0 {
		t.Error("an unknown workload ran")
	}
}

func TestVerifyJobsAgainstPins(t *testing.T) {
	ok := func() error { return nil }
	bad := func() error { return errors.New("differs") }
	jobs := []jobOutcome{
		{key: "a", id: "a#0", digest: "d1", verify: bad},
		{key: "a", id: "a#1", digest: "d1", verify: bad}, // repeat of a pinned job
		{key: "b", id: "b#0", digest: "d2", verify: ok},  // pinned to another digest
		{key: "c", id: "c#0", digest: "d3", verify: ok},  // no pin: self-consistency
		{key: "c", id: "c#1", digest: "dx", verify: ok},  // repeat with another digest
		{key: "e", id: "e#0", err: errors.New("boom")},
		{key: "f", id: "f#0", digest: "d4", verify: bad},
	}
	v := verifyJobs(jobs, map[string]string{"a": "d1", "b": "zz"})
	if v.pinnedOK != 2 || v.selfOK != 1 || v.failed != 4 {
		t.Errorf("pinnedOK=%d selfOK=%d failed=%d, want 2 1 4 (%v)", v.pinnedOK, v.selfOK, v.failed, v.errors)
	}

	path := filepath.Join(t.TempDir(), "pins.json")
	p, err := loadPins(path)
	if err != nil || len(p) != 0 {
		t.Fatalf("missing pins file: %v %v", p, err)
	}
	p.set("w", 2, map[string]string{"a": "d1"})
	if err := p.save(path); err != nil {
		t.Fatal(err)
	}
	if p, err = loadPins(path); err != nil || p.forSeed("w", 2)["a"] != "d1" || p.forSeed("w", 3) != nil {
		t.Errorf("pins round trip: %v %v", p, err)
	}
}

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json and the metrics and
// workloads the benchmark prints in step.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []def                        `json:"end_to_end"`
		PerLayer  []def                        `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metricDef, defs []metricDef) {
		if len(got) != len(defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the code", len(got), kind, len(defs))
		}
		for i := range defs {
			if got[i] != defs[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the code %+v", kind, i, got[i], defs[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end-to-end", e2e, endToEndMetrics)
	check("per-layer", layer, perLayerMetrics)
}
