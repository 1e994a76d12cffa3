package tuner

import (
	"context"
	"math/rand"
	"testing"

	"micrograd/internal/evalcache"
	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/microprobe"
	"micrograd/internal/platform"
)

// stackConfigs draws n distinct stress configurations deterministically.
func stackConfigs(n int) []knobs.Config {
	rng := rand.New(rand.NewSource(11))
	space := knobs.StressSpace()
	seen := map[string]bool{}
	var cfgs []knobs.Config
	for len(cfgs) < n {
		if cfg := space.RandomConfig(rng); !seen[cfg.Key()] {
			seen[cfg.Key()] = true
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// smallStack builds a Small-core newPlatformEvaluator stack over the shared
// synthesis memo syn and the cache group memo (nil: a private cache).
func smallStack(t *testing.T, syn *microprobe.CachingSynthesizer, memo *evalcache.Group) *MemoizingEvaluator {
	t.Helper()
	plat, err := platform.NewSimPlatform(platform.Small())
	if err != nil {
		t.Fatal(err)
	}
	eval, err := newPlatformEvaluator(PlatformOptions{
		Name:     "stack",
		Platform: plat,
		Synth:    syn,
		Options:  platform.EvalOptions{DynamicInstructions: 12000, Seed: 3, CollectPower: true},
		Memo:     memo,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eval
}

// TestPlatformEvaluatorMemosHitOnRepeatedPass checks both memo layers of the
// evaluation stack: a repeated pass through a shared cache group is served
// entirely from the evaluation cache and never reaches the synthesizer, and
// a pass through a second stack with a cache of its own re-simulates but
// finds every kernel in the shared synthesis memo.
func TestPlatformEvaluatorMemosHitOnRepeatedPass(t *testing.T) {
	cfgs := stackConfigs(6)
	n := uint64(len(cfgs))
	group := evalcache.NewGroup(evalcache.NewMap())
	syn := microprobe.NewCachingSynthesizer(microprobe.Options{LoopSize: 120, Seed: 3})
	memo := smallStack(t, syn, group)
	ctx := context.Background()
	for pass := 0; pass < 2; pass++ {
		if _, err := memo.EvaluateBatch(ctx, cfgs, 1); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := group.Stats(); hits != n || misses != n {
		t.Errorf("eval memo after two passes = %d hits / %d misses, want %d / %d", hits, misses, n, n)
	}
	if hits, misses := syn.Stats(); hits != 0 || misses != n {
		t.Errorf("synth memo after two passes = %d hits / %d misses, want 0 / %d", hits, misses, n)
	}

	direct := smallStack(t, syn, nil)
	if _, err := direct.EvaluateBatch(ctx, cfgs, 1); err != nil {
		t.Fatal(err)
	}
	if direct.Misses() != n {
		t.Errorf("private-cache pass simulated %d configurations, want %d", direct.Misses(), n)
	}
	if hits, misses := syn.Stats(); hits != n || misses != n {
		t.Errorf("synth memo after the private-cache pass = %d hits / %d misses, want %d / %d", hits, misses, n, n)
	}
}

// TestReducedFidelitySimulatesFewerInstructions checks what screening at
// fidelity 0.25 buys, counted in simulated instructions rather than timed:
// every configuration runs a quarter of the window on the kernel the full
// pass already synthesized.
func TestReducedFidelitySimulatesFewerInstructions(t *testing.T) {
	cfgs := stackConfigs(4)
	syn := microprobe.NewCachingSynthesizer(microprobe.Options{LoopSize: 120, Seed: 3})
	eval := smallStack(t, syn, nil)
	ctx := context.Background()
	full, err := eval.EvaluateBatch(ctx, cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := eval.EvaluateBatch(ctx, cfgs, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	var fullSum, reducedSum float64
	for i := range cfgs {
		f, r := full[i][metrics.Instructions], reduced[i][metrics.Instructions]
		if f < 12000 || r < 3000 || r >= f/2 {
			t.Errorf("config %d simulated %.0f instructions at fidelity 0.25 and %.0f at 1, want about a quarter", i, r, f)
		}
		fullSum += f
		reducedSum += r
	}
	if reducedSum >= fullSum/2 {
		t.Errorf("fidelity 0.25 pass simulated %.0f instructions, full pass %.0f", reducedSum, fullSum)
	}
	if hits, misses := syn.Stats(); hits != uint64(len(cfgs)) || misses != uint64(len(cfgs)) {
		t.Errorf("synth memo = %d hits / %d misses, want the reduced pass to reuse every kernel", hits, misses)
	}
}

// countingPlatform counts the requests a platform serves.
type countingPlatform struct {
	platform.Platform
	served int
}

func (c *countingPlatform) EvaluateRequest(req platform.EvalRequest) (platform.EvalResponse, error) {
	c.served++
	return c.Platform.EvaluateRequest(req)
}

func newCountingPlatform(t *testing.T) *countingPlatform {
	t.Helper()
	plat, err := platform.NewSimPlatform(platform.Small())
	if err != nil {
		t.Fatal(err)
	}
	return &countingPlatform{Platform: plat}
}

// TestParallelStackEvaluatesOnTheGivenPlatform checks that a parallel stack
// makes the platform it is given its first worker: NewPlatform builds only
// the other Parallel-1 workers, and the given platform serves evaluations.
func TestParallelStackEvaluatesOnTheGivenPlatform(t *testing.T) {
	given := newCountingPlatform(t)
	var built []*countingPlatform
	eval, err := newPlatformEvaluator(PlatformOptions{
		Name:     "stack",
		Platform: given,
		Parallel: 3,
		NewPlatform: func() (platform.Platform, error) {
			plat := newCountingPlatform(t)
			built = append(built, plat)
			return plat, nil
		},
		Synth:   microprobe.NewCachingSynthesizer(microprobe.Options{LoopSize: 120, Seed: 3}),
		Options: platform.EvalOptions{DynamicInstructions: 4000, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(built) != 2 {
		t.Errorf("a 3-worker stack called NewPlatform %d times, want 2", len(built))
	}
	cfgs := stackConfigs(9)
	if _, err := eval.EvaluateBatch(context.Background(), cfgs, 1); err != nil {
		t.Fatal(err)
	}
	served := given.served
	if served == 0 {
		t.Error("the given platform served no evaluations")
	}
	for _, plat := range built {
		served += plat.served
	}
	if served != len(cfgs) {
		t.Errorf("the workers served %d evaluations, want %d", served, len(cfgs))
	}
}
