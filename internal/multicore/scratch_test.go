package multicore

import (
	"math/rand"
	"slices"
	"testing"

	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/microprobe"
	"micrograd/internal/platform"
	"micrograd/internal/program"
)

// TestChipScratchReuseKeepsResults pins the chip's per-evaluation buffers:
// evaluating A, then B, then A again on one chip must give A's bits both
// times, for a lumped chip, grid chips on both grid solves (1×2 and 2×2 in
// registers, 2×3 in the slice loops; the 2×2 with an idle node), a chip
// under per-core clock overrides and a chip whose cores share simulations. B
// runs a longer window than A, so every buffer grows for B and is then
// reused, longer than needed, for A.
func TestChipScratchReuseKeepsResults(t *testing.T) {
	small := platform.Small()
	hotspot, err := ParseFloorplan("0,0;0,0;0,1;1,1", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []struct {
		name  string
		spec  CoRunSpec
		space *knobs.Space
		dup   bool
	}{
		{"lumped", Homogeneous(small, 4), knobs.CoRunStressSpace(4), false},
		{"grid-idle-node", Homogeneous(small, 4).WithGrid(2, 2, &hotspot), knobs.SpatialStressSpace(4), false},
		{"grid-1x2", Homogeneous(small, 2).WithGrid(1, 2, nil), knobs.SpatialStressSpace(2), false},
		{"grid-2x3", Homogeneous(small, 6).WithGrid(2, 3, nil), knobs.SpatialStressSpace(6), false},
		{"dvfs", Homogeneous(small, 4), knobs.DVFSStressSpace(4), false},
		{"shared-cores", Homogeneous(small, 4).WithGrid(2, 2, nil), knobs.SpatialStressSpace(4), true},
	}
	syn := microprobe.NewSynthesizer(microprobe.Options{LoopSize: 120, Seed: 3})
	for ki, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ki + 1)))
			c, err := New(kind.spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			request := func(name string, instructions int) platform.EvalRequest {
				cfg := kind.space.RandomConfig(rng)
				if kind.dup {
					cfg = forceDuplicates(cfg, rng)
				}
				progs, err := c.SynthesizeCoRun(name, cfg, syn)
				if err != nil {
					t.Fatal(err)
				}
				return platform.EvalRequest{Programs: progs, FreqOverrides: platform.FreqOverrides(cfg, c.NumCores()),
					Options: platform.EvalOptions{DynamicInstructions: instructions, Seed: 5}}
			}
			a, b := request("a", 3000), request("b", 6000)
			for _, detail := range []platform.EvalDetail{platform.DetailMetrics, platform.DetailTrace} {
				a.Detail, b.Detail = detail, detail
				first, err := c.EvaluateRequest(a)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.EvaluateRequest(b); err != nil {
					t.Fatal(err)
				}
				again, err := c.EvaluateRequest(a)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResponse(t, again, first)
			}
			if kind.dup && c.SharedCores() == 0 {
				t.Error("no core was shared: the duplicates were not exercised")
			}
		})
	}
}

// TestChipDetailTraceOutlivesNextEvaluation pins that a DetailTrace
// response owns its chip trace: the chip's next evaluations, at either
// detail level, must not write into it.
func TestChipDetailTraceOutlivesNextEvaluation(t *testing.T) {
	c, err := New(Homogeneous(platform.Small(), 4).WithGrid(2, 2, nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	p := testKernel(t)
	opts := platform.EvalOptions{DynamicInstructions: 4000, Seed: 1}
	resp, err := c.EvaluateRequest(platform.EvalRequest{Programs: everyCore(c, p), Options: opts, Detail: platform.DetailTrace})
	if err != nil {
		t.Fatal(err)
	}
	want := resp.Trace
	want.Points = slices.Clone(resp.Trace.Points)
	next := opts
	next.Seed = 2
	for _, detail := range []platform.EvalDetail{platform.DetailMetrics, platform.DetailTrace} {
		if _, err := c.EvaluateRequest(platform.EvalRequest{Programs: everyCore(c, p), Options: next, Detail: detail}); err != nil {
			t.Fatal(err)
		}
		if !sameTrace(resp.Trace, want) {
			t.Fatalf("a %s evaluation overwrote the previous response's chip trace", detail)
		}
	}
}

// TestChipRequestClockIsEveryCoreDefault is the regression pin for the
// request-level clock: Options.FrequencyGHz re-clocks every core that has
// no per-core override, so a request at 1 GHz must equal, bit for bit, the
// same request with every core overridden to 1 GHz — the reported per-core
// clocks and the aggregation grid included. The chip used to keep the
// spec clock in its own bookkeeping while the cores ran at the request's.
func TestChipRequestClockIsEveryCoreDefault(t *testing.T) {
	p := testKernel(t)
	progs := []*program.Program{p, p}
	opts := platform.EvalOptions{DynamicInstructions: 4000, Seed: 1, FrequencyGHz: 1}
	for _, detail := range []platform.EvalDetail{platform.DetailMetrics, platform.DetailTrace} {
		got, err := twoSmall(t, 1).EvaluateRequest(platform.EvalRequest{Programs: progs, Options: opts, Detail: detail})
		if err != nil {
			t.Fatal(err)
		}
		want, err := twoSmall(t, 1).EvaluateRequest(platform.EvalRequest{Programs: progs, FreqOverrides: []float64{1, 1},
			Options: opts, Detail: detail})
		if err != nil {
			t.Fatal(err)
		}
		requireSameResponse(t, got, want)
		if f := got.Metrics[coreMetric(1, metrics.FreqGHz)]; f != 1 {
			t.Errorf("%s: core 1 reports %v GHz under a 1 GHz request", detail, f)
		}
	}
	// A per-core override still wins over the request clock.
	resp, err := twoSmall(t, 1).EvaluateRequest(platform.EvalRequest{Programs: progs, FreqOverrides: []float64{0, 1.5}, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if f0, f1 := resp.Metrics[coreMetric(0, metrics.FreqGHz)], resp.Metrics[coreMetric(1, metrics.FreqGHz)]; f0 != 1 || f1 != 1.5 {
		t.Errorf("clocks %v/%v GHz, want 1/1.5 (request default, then override)", f0, f1)
	}
}
