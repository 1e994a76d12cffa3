package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	steady := func(base float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + float64(i%3) // spread 2/base
		}
		return xs
	}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	parent := steady(100)
	for _, tc := range []struct {
		name         string
		change       []float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"gain on every pair beyond the parent's IQR", scaled(parent, 1.2), true, 0.1, improved},
		{"same runs", parent, true, 0.1, unchanged},
		{"small loss within the bound", scaled(parent, 0.97), true, 0.1, unchanged},
		{"loss beyond the bound", scaled(parent, 0.8), true, 0.1, worse},
		{"lower-is-better loss beyond the bound", scaled(parent, 1.2), false, 0.1, worse},
		{"lower-is-better gain", scaled(parent, 0.8), false, 0.1, improved},
		{"too few pairs", parent[:9], true, 0.1, unresolved},
	} {
		p := parent
		if len(tc.change) < len(p) {
			p = p[:len(tc.change)]
		}
		if got, _ := judge(p, tc.change, tc.higherBetter, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}

	// Wide spread on both sides, but each pair's two runs agree: the pairs
	// cancel what the runs of a side do not share.
	noisy := []float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100}
	shifted := []float64{81, 119, 91, 111, 101, 86, 114, 96, 104, 99}
	if got, _ := judge(noisy, shifted, true, 0.05); got != unchanged {
		t.Errorf("steady pairs over noisy runs: verdict %s, want %s", got, unchanged)
	}
	// Pairs that disagree by more than the bound, medians within it: not
	// provably unchanged — unless every change run beats every parent run.
	factors := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0}
	if got, _ := judge(parent, mul(parent, factors), true, 0.25); got != unresolved {
		t.Errorf("noisy pairs: verdict %s, want %s", got, unresolved)
	}
	above := []float64{121, 121.5, 122, 121, 121.5, 122, 121, 121.5, 122, 121.5}
	if got, _ := judge(noisy, above, true, 0.05); got != unchanged {
		t.Errorf("every change run above every parent run: verdict %s, want %s", got, unchanged)
	}
}

func mul(xs, fs []float64) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		out[i] = xs[i] * fs[i]
	}
	return out
}

// writeRun writes one run's output the way the benchmark prints it.
func writeRun(t *testing.T, dir, workload string, seed int64, metrics map[string]float64) {
	t.Helper()
	res := result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}
	for n, v := range metrics {
		res.Metrics[n] = metric{Value: v, Unit: "s"}
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	out := fmt.Sprintf("benchmark: workload=%s seed=%d seconds=1 trace=false scale=full gomaxprocs=2 nproc=2 go=go1.24.0\nverify: ok\n%s\n", workload, seed, blob)
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.txt", workload, seed)), []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareAndSummarize(t *testing.T) {
	root := t.TempDir()
	spec := filepath.Join(root, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"workloads":[{"name":"w"}],
		"end_to_end":[{"name":"job_s_p50","unit":"s","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	parent, change := filepath.Join(root, "parent"), filepath.Join(root, "change")
	for _, d := range []string{parent, change} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for seed := int64(1); seed <= 10; seed++ {
		writeRun(t, parent, "w", seed, map[string]float64{"job_s_p50": 10 + float64(seed%3)})
		writeRun(t, change, "w", seed, map[string]float64{"job_s_p50": 5 + float64(seed%3)})
	}
	var out, errOut bytes.Buffer
	if code := runCompare([]string{"-spec", spec, parent, change}, &out, &errOut); code != 0 {
		t.Fatalf("compare exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "job_s_p50") || !strings.Contains(out.String(), improved) {
		t.Errorf("compare output lacks the improved row:\n%s", out.String())
	}
	out.Reset()
	written := filepath.Join(root, "baseline.json")
	if code := runSummarize([]string{"-spec", spec, "-write", written, parent}, &out, &errOut); code != 0 {
		t.Fatalf("summarize exited %d: %s", code, errOut.String())
	}
	blob, err := os.ReadFile(written)
	if err != nil {
		t.Fatal(err)
	}
	var b baseline
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	if got := b.Workloads["w"]["job_s_p50"]; got.Runs != 10 || got.Median != 11 {
		t.Errorf("summary = %+v, want 10 runs with median 11", got)
	}
	if code := runCompare([]string{"-spec", spec, parent}, &out, &errOut); code != 2 {
		t.Errorf("compare with one directory exited %d, want 2", code)
	}
}
