package platform

import (
	"testing"

	"micrograd/internal/knobs"
	"micrograd/internal/microprobe"
	"micrograd/internal/powersim"
	"micrograd/internal/program"
)

// The allocation pins of the per-candidate hot path: a synthesis miss and a
// metrics-only evaluation allocate only what they return. Each bound is the
// count measured when the pin was set plus one, so a new allocation fails
// it. sync.Pool drops items at random under the race detector, so the pins
// skip there; CI runs them in a separate non-race step.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
}

// stressKernel synthesizes the stress kernel the pins evaluate.
func stressKernel(t *testing.T, syn *microprobe.Synthesizer) *program.Program {
	t.Helper()
	p, err := syn.Synthesize("stress", knobs.StressSpace().MidConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAllocsSynthesizeStressKernel(t *testing.T) {
	skipUnderRace(t)
	syn := microprobe.NewSynthesizer(microprobe.Options{LoopSize: 500, Seed: 1})
	set := knobs.StressSpace().MidConfig().Settings()
	stressKernel(t, syn) // warm the scratch pool
	// The program, its instructions, streams, patterns and notes, the
	// metadata map, and the branch-ratio metadata string.
	const bound = 9 + 1
	got := testing.AllocsPerRun(50, func() {
		if _, err := syn.SynthesizeSettings("stress", set); err != nil {
			t.Fatal(err)
		}
	})
	if got > bound {
		t.Errorf("stress-kernel synthesis miss allocates %v times, want at most %d", got, bound)
	}
}

func TestAllocsDynamicPower(t *testing.T) {
	skipUnderRace(t)
	plat, err := NewSimPlatform(Large())
	if err != nil {
		t.Fatal(err)
	}
	p := stressKernel(t, microprobe.NewSynthesizer(microprobe.Options{LoopSize: 500, Seed: 1}))
	r, err := plat.simulate(p, EvalOptions{DynamicInstructions: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	model, err := powersim.New(Large().Power)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(50, func() { model.DynamicPower(r) }); got != 0 {
		t.Errorf("DynamicPower allocates %v times, want 0", got)
	}
}

func TestAllocsEvaluateRequestMetrics(t *testing.T) {
	skipUnderRace(t)
	plat, err := NewSimPlatform(Large())
	if err != nil {
		t.Fatal(err)
	}
	p := stressKernel(t, microprobe.NewSynthesizer(microprobe.Options{LoopSize: 500, Seed: 1}))
	req := EvalRequest{Programs: []*program.Program{p},
		Options: EvalOptions{DynamicInstructions: 20000, Seed: 1, CollectPower: true}}
	if _, err := plat.EvaluateRequest(req); err != nil { // warm the platform's buffers
		t.Fatal(err)
	}
	// The metric vector, the one thing a metrics-only evaluation returns.
	const bound = 4 + 1
	got := testing.AllocsPerRun(10, func() {
		if _, err := plat.EvaluateRequest(req); err != nil {
			t.Fatal(err)
		}
	})
	if got > bound {
		t.Errorf("metrics-only evaluation with power allocates %v times, want at most %d", got, bound)
	}
}

// spatialCoreConfig returns the 4-core spatial space's mid configuration
// with core i at the i-th phase offset of the grid, so every core's kernel
// is a distinct rotation.
func spatialCoreConfig(t *testing.T) knobs.Config {
	t.Helper()
	space := knobs.SpatialStressSpace(4)
	cfg := space.MidConfig()
	for i := 0; i < 4; i++ {
		k, ok := space.IndexOf(knobs.PhaseOffsetName(i))
		if !ok {
			t.Fatalf("space has no %s", knobs.PhaseOffsetName(i))
		}
		cfg = cfg.WithIndex(k, 3*i+1)
	}
	return cfg
}

// TestAllocsCoRunSynthesisMiss pins a 4-core spatial candidate that no
// memo holds: one pass-pipeline run for the shared shape, then per core a
// copy of it (the program, its instructions and notes, the metadata map and
// the phase-offset string; the read-only streams and patterns are shared)
// rotated in pooled scratch. Synthesizing each core through the whole
// pipeline took 62.
func TestAllocsCoRunSynthesisMiss(t *testing.T) {
	skipUnderRace(t)
	syn := microprobe.NewSynthesizer(microprobe.Options{LoopSize: 500, Seed: 1})
	cfg := spatialCoreConfig(t)
	progs, names := make([]*program.Program, 4), make([]string, 4)
	CoreKernelNames(names, "spatial")
	if err := syn.SynthesizeCores(progs, names, cfg); err != nil { // warm the scratch pool
		t.Fatal(err)
	}
	const bound = 44 + 1
	got := testing.AllocsPerRun(20, func() {
		if err := syn.SynthesizeCores(progs, names, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if got > bound {
		t.Errorf("4-core co-run synthesis miss allocates %v times, want at most %d", got, bound)
	}
}

// TestAllocsCoRunSingleMiss pins a 4-core spatial candidate whose memo
// misses only the last core, as when a tuner moves one core's phase offset:
// that core is built through the whole pipeline, as a direct synthesis is,
// with no base built or copied beside it, and the memo insertion copies its
// key (map growth spread over the insertions stays below one more).
func TestAllocsCoRunSingleMiss(t *testing.T) {
	skipUnderRace(t)
	opts := microprobe.Options{LoopSize: 500, Seed: 1}
	cfg := spatialCoreConfig(t)
	names := make([]string, 4)
	CoreKernelNames(names, "spatial")
	space := cfg.Space()
	last, _ := space.IndexOf(knobs.PhaseOffsetName(3))
	const runs = 10
	cfgs := make([]knobs.Config, runs+1) // AllocsPerRun calls once more to warm up
	for v := range cfgs {
		cfgs[v] = cfg.WithIndex(last, v)
	}

	plain := microprobe.NewSynthesizer(opts)
	set := cfg.Settings()
	direct := testing.AllocsPerRun(runs, func() {
		if _, err := plain.SynthesizeSettings(names[3], set); err != nil {
			t.Fatal(err)
		}
	})

	syn := microprobe.NewCachingSynthesizer(opts)
	progs := make([]*program.Program, 4)
	if err := syn.SynthesizeCores(progs, names, cfg.WithIndex(last, runs+1)); err != nil {
		t.Fatal(err)
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		if err := syn.SynthesizeCores(progs, names, cfgs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if _, misses := syn.Stats(); misses != 4+runs+1 {
		t.Fatalf("%d memo misses, want %d: one per configuration after the first", misses, 4+runs+1)
	}
	if bound := direct + 2; got > bound {
		t.Errorf("co-run candidate with one memo miss allocates %v times, want at most %v (direct synthesis %v, key copy 1, map growth under 1)", got, bound, direct)
	}
}

// TestAllocsEvalKeyerKey pins a cache key at one allocation, the key
// itself, at full and at reduced fidelity.
func TestAllocsEvalKeyerKey(t *testing.T) {
	k := NewEvalKeyer("allocs", microprobe.Options{LoopSize: 500, Seed: 1},
		EvalOptions{DynamicInstructions: 40000, Seed: 1, CollectPower: true})
	cfg := knobs.SpatialStressSpace(4).MidConfig()
	for _, fidelity := range []float64{1, 0.25} {
		got := testing.AllocsPerRun(100, func() { _ = k.Key(cfg, fidelity) })
		if got != 1 {
			t.Errorf("Key at fidelity %v allocates %v times, want 1", fidelity, got)
		}
	}
}
