package multicore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"micrograd/internal/knobs"
	"micrograd/internal/microprobe"
	"micrograd/internal/platform"
	"micrograd/internal/powersim"
	"micrograd/internal/program"
)

// requireSameResponse asserts that two chip responses are bit-identical:
// the metric vectors key by key and the chip traces point by point.
func requireSameResponse(t *testing.T, got, want platform.EvalResponse) {
	t.Helper()
	if len(got.Metrics) != len(want.Metrics) {
		t.Errorf("%d metrics, every-core run has %d", len(got.Metrics), len(want.Metrics))
	}
	for name, w := range want.Metrics {
		g, ok := got.Metrics[name]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s = %.17g (present %v), every-core run %.17g", name, g, ok, w)
		}
	}
	if !sameTrace(got.Trace, want.Trace) {
		t.Errorf("chip trace differs from the every-core run")
	}
}

// sameTrace reports whether two traces are the same bits.
func sameTrace(a, b powersim.PowerTrace) bool {
	if a.WindowCycles != b.WindowCycles || len(a.Points) != len(b.Points) ||
		math.Float64bits(a.FrequencyGHz) != math.Float64bits(b.FrequencyGHz) ||
		math.Float64bits(a.WindowNS) != math.Float64bits(b.WindowNS) {
		return false
	}
	for i, p := range a.Points {
		q := b.Points[i]
		if p.Cycles != q.Cycles || math.Float64bits(p.DurationNS) != math.Float64bits(q.DurationNS) ||
			math.Float64bits(p.EnergyPJ) != math.Float64bits(q.EnergyPJ) ||
			math.Float64bits(p.PowerW) != math.Float64bits(q.PowerW) {
			return false
		}
	}
	return true
}

// forceDuplicates rewrites a configuration so that cores collide: every
// PHASE_OFFSET and FREQ_GHZ knob takes one of its first two values.
func forceDuplicates(cfg knobs.Config, rng *rand.Rand) knobs.Config {
	space := cfg.Space()
	for i := 0; i < 4; i++ {
		for _, name := range []string{knobs.PhaseOffsetName(i), knobs.FreqGHzName(i)} {
			if k, ok := space.IndexOf(name); ok {
				cfg = cfg.WithIndex(k, rng.Intn(2))
			}
		}
	}
	return cfg
}

// TestChipSharedCoresMatchEveryCoreRun pins core sharing: for random
// configurations of every chip kind — lumped co-run, per-core DVFS clocks,
// small+large, start skews, spatial and a hotspot floorplan — with
// duplicate phase offsets and clocks forced, an evaluation that simulates
// each distinct core once must equal one that simulates every core, bit for
// bit, at Parallel 1 and 4 and at every detail level.
func TestChipSharedCoresMatchEveryCoreRun(t *testing.T) {
	small, large := platform.Small(), platform.Large()
	skewed := Homogeneous(small, 4)
	skewed.OffsetCycles = []uint64{0, 512, 0, 1024}
	mixed := CoRunSpec{Cores: []platform.CoreSpec{small, large, small, large}, Supply: small.Supply, Thermal: small.Thermal}
	hotspot, err := ParseFloorplan("0,0;0,0;0,1;1,1", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []struct {
		name  string
		spec  CoRunSpec
		space *knobs.Space
	}{
		{"lumped", Homogeneous(small, 4), knobs.CoRunStressSpace(4)},
		{"dvfs", Homogeneous(small, 4), knobs.DVFSStressSpace(4)},
		{"small+large", mixed, knobs.CoRunStressSpace(4)},
		{"offset-skews", skewed, knobs.CoRunStressSpace(4)},
		{"spatial", Homogeneous(small, 4).WithGrid(2, 2, nil), knobs.SpatialStressSpace(4)},
		{"hotspot", Homogeneous(small, 4).WithGrid(2, 2, &hotspot), knobs.SpatialStressSpace(4)},
	}
	syn := microprobe.NewSynthesizer(microprobe.Options{LoopSize: 120, Seed: 3})
	opts := platform.EvalOptions{DynamicInstructions: 3000, Seed: 5}
	details := []platform.EvalDetail{platform.DetailMetrics, platform.DetailTrace}
	for ki, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ki + 1)))
			ref, err := New(kind.spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			var shared, clockSplit uint64
			for _, parallel := range []int{1, 4} {
				c, err := New(kind.spec, parallel)
				if err != nil {
					t.Fatal(err)
				}
				for trial := 0; trial < 3; trial++ {
					cfg := forceDuplicates(kind.space.RandomConfig(rng), rng)
					progs, err := c.SynthesizeCoRun(fmt.Sprintf("share-%d", trial), cfg, syn)
					if err != nil {
						t.Fatal(err)
					}
					freqs := platform.FreqOverrides(cfg, 4)
					clockSplit += sameKernelOtherClock(c, progs, freqs)
					for _, detail := range details {
						got, err := c.EvaluateRequest(platform.EvalRequest{Programs: progs, FreqOverrides: freqs, Options: opts, Detail: detail})
						if err != nil {
							t.Fatal(err)
						}
						want, err := ref.evaluateDetailed(progs, freqs, opts, detail, false)
						if err != nil {
							t.Fatal(err)
						}
						requireSameResponse(t, got, want)
					}
				}
				shared += c.SharedCores()
			}
			if shared == 0 {
				t.Error("no core was shared: the duplicates were not exercised")
			}
			if kind.name == "dvfs" && clockSplit == 0 {
				t.Error("no core pair ran one kernel at two clocks: the clock key was not exercised")
			}
		})
	}
}

// sameKernelOtherClock counts the core pairs of one evaluation that run the
// same kernel on equal specs at different effective clocks — the cores the
// clock in the sharing key keeps apart.
func sameKernelOtherClock(c *CoRunPlatform, progs []*program.Program, freqs []float64) uint64 {
	clock := func(i int) float64 {
		if freqs != nil && freqs[i] > 0 {
			return freqs[i]
		}
		return c.spec.Cores[i].CPU.FrequencyGHz
	}
	var n uint64
	for i := range progs {
		for j := range i {
			if c.specClass[i] == c.specClass[j] && sameKernel(progs[i], progs[j]) &&
				math.Float64bits(clock(i)) != math.Float64bits(clock(j)) {
				n++
			}
		}
	}
	return n
}

// TestCoRunCountsSharedCores pins the sharing counters on a 4-core chip:
// equal phase offsets on every core cost one core simulation per
// evaluation, offsets {0,16,0,16} two, distinct offsets four, and one
// program on every core one.
func TestCoRunCountsSharedCores(t *testing.T) {
	space := knobs.SpatialStressSpace(4)
	sess := func(t *testing.T) (*CoRunPlatform, *platform.EvalSession) {
		c, err := New(Homogeneous(platform.Small(), 4), 1)
		if err != nil {
			t.Fatal(err)
		}
		return c, platform.NewEvalSession(c, microprobe.NewCachingSynthesizer(microprobe.Options{LoopSize: 120, Seed: 1}))
	}
	opts := platform.EvalOptions{DynamicInstructions: 3000, Seed: 1}
	for _, tc := range []struct {
		name    string
		offsets [4]int // indices into the phase-offset values (0, 16, 32, 48)
		sims    uint64
	}{
		{"all-equal", [4]int{0, 0, 0, 0}, 1},
		{"0,16,0,16", [4]int{0, 1, 0, 1}, 2},
		{"all-distinct", [4]int{0, 1, 2, 3}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, s := sess(t)
			cfg := space.MidConfig()
			for i, idx := range tc.offsets {
				k, _ := space.IndexOf(knobs.PhaseOffsetName(i))
				cfg = cfg.WithIndex(k, idx)
			}
			const evals = 3
			for e := 0; e < evals; e++ {
				if _, err := s.Evaluate(platform.EvalRequest{Name: tc.name, Config: cfg, Options: opts}); err != nil {
					t.Fatal(err)
				}
			}
			if got := c.CoreSimulations(); got != evals*tc.sims {
				t.Errorf("%d core simulations over %d evaluations, want %d per evaluation", got, evals, tc.sims)
			}
			if got, want := c.SharedCores(), evals*(4-tc.sims); got != want {
				t.Errorf("%d shared cores, want %d", got, want)
			}
		})
	}
	t.Run("one-program-fanned-out", func(t *testing.T) {
		c, _ := sess(t)
		if _, err := chipMetrics(c, everyCore(c, testKernel(t)), opts); err != nil {
			t.Fatal(err)
		}
		if c.CoreSimulations() != 1 || c.SharedCores() != 3 {
			t.Errorf("one program on every core: %d simulations, %d shared cores; want 1, 3",
				c.CoreSimulations(), c.SharedCores())
		}
	})
}
