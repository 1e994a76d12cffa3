package micrograd

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus micro-benchmarks of the main substrates.
//
// The per-figure benchmarks run the same experiment code that cmd/mgbench
// uses, but at a deliberately small budget so that `go test -bench=.`
// completes in a few minutes; the full-size reproduction (whose outputs are
// recorded in EXPERIMENTS.md) is run with `go run ./cmd/mgbench -experiment
// all`.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"micrograd/internal/experiments"
	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/microprobe"
	"micrograd/internal/platform"
	"micrograd/internal/program"
	"micrograd/internal/sched"
	"micrograd/internal/trace"
	"micrograd/internal/workloads"
)

// benchBudget is the reduced budget used by the per-figure benchmarks.
func benchBudget() experiments.Budget {
	return experiments.Budget{
		DynamicInstructions:   3000,
		CloneEpochs:           5,
		StressEpochs:          5,
		LoopSize:              150,
		Benchmarks:            []string{"hmmer"},
		BruteForceEvaluations: 64,
		Seed:                  1,
	}
}

// BenchmarkTableI_GAParams regenerates Table I (GA baseline parameters).
func BenchmarkTableI_GAParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.TableI().Render(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableII_CoreConfigs regenerates Table II (core configurations).
func BenchmarkTableII_CoreConfigs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.TableII().Render(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig2_CloningLargeGD regenerates (a reduced form of) Fig. 2:
// workload cloning on the Large core with gradient descent.
func BenchmarkFig2_CloningLargeGD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig2(context.Background(), benchBudget()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3_CloningSmallGD regenerates Fig. 3: cloning on the Small core.
func BenchmarkFig3_CloningSmallGD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig3(context.Background(), benchBudget()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4_CloningLargeGA regenerates Fig. 4: cloning with the GA
// baseline at the same epoch budget.
func BenchmarkFig4_CloningLargeGA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig4(context.Background(), benchBudget(), map[string]int{"hmmer": 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5_PerfVirus regenerates Fig. 5: the performance virus
// (worst-case IPC), GD vs GA vs brute force.
func BenchmarkFig5_PerfVirus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig5(context.Background(), benchBudget()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6_PowerVirus regenerates Fig. 6: the power virus (worst-case
// dynamic power), GD vs GA vs brute force.
func BenchmarkFig6_PowerVirus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig6(context.Background(), benchBudget()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIII_PowerVirusMix regenerates Table III: the instruction
// distribution of the GD power virus.
func BenchmarkTableIII_PowerVirusMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(context.Background(), benchBudget())
		if err != nil {
			b.Fatal(err)
		}
		if out := experiments.TableIIIFrom(res.GD).Render(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkSummary_HeadlineClaims regenerates the abstract's headline
// comparison table from reduced runs of the underlying experiments.
func BenchmarkSummary_HeadlineClaims(b *testing.B) {
	for i := 0; i < b.N; i++ {
		budget := benchBudget()
		ctx := context.Background()
		fig2, err := experiments.RunFig2(ctx, budget)
		if err != nil {
			b.Fatal(err)
		}
		fig4, err := experiments.RunFig4(ctx, budget, fig2.EpochsPerBenchmark())
		if err != nil {
			b.Fatal(err)
		}
		fig5, err := experiments.RunFig5(ctx, budget)
		if err != nil {
			b.Fatal(err)
		}
		fig6, err := experiments.RunFig6(ctx, budget)
		if err != nil {
			b.Fatal(err)
		}
		if out := experiments.Summary(fig2, fig4, fig5, fig6).Render(); len(out) == 0 {
			b.Fatal("empty summary")
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkSynthesizer measures test-case generation (knobs -> program).
func BenchmarkSynthesizer(b *testing.B) {
	space := knobs.DefaultSpace()
	cfg := space.MidConfig()
	syn := microprobe.NewSynthesizer(microprobe.Options{LoopSize: 500, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := syn.Synthesize("bench", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesizeStressKernel measures one synthesis miss of a stress
// kernel — the per-candidate synthesis work of every stress search — on a
// warmed synthesizer.
func BenchmarkSynthesizeStressKernel(b *testing.B) {
	set := knobs.StressSpace().MidConfig().Settings()
	syn := microprobe.NewSynthesizer(microprobe.Options{LoopSize: 500, Seed: 1})
	if _, err := syn.SynthesizeSettings("stress", set); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := syn.SynthesizeSettings("stress", set); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceExpansion measures dynamic trace generation throughput.
func BenchmarkTraceExpansion(b *testing.B) {
	cfg := knobs.DefaultSpace().MidConfig()
	p, err := microprobe.NewSynthesizer(microprobe.Options{LoopSize: 500, Seed: 1}).Synthesize("bench", cfg)
	if err != nil {
		b.Fatal(err)
	}
	exp := trace.Reuse(new(trace.Expander), p, 1)
	var entry trace.Entry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.NextInto(&entry)
	}
}

// BenchmarkSimulatorLargeCore measures the end-to-end evaluation cost of one
// configuration on the Large core (the unit of work inside every tuning
// epoch); the reported time is per 10k dynamic instructions.
func BenchmarkSimulatorLargeCore(b *testing.B) {
	plat, err := platform.NewSimPlatform(platform.Large())
	if err != nil {
		b.Fatal(err)
	}
	cfg := knobs.DefaultSpace().MidConfig()
	p, err := microprobe.NewSynthesizer(microprobe.Options{LoopSize: 500, Seed: 1}).Synthesize("bench", cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plat.EvaluateRequest(platform.EvalRequest{
			Programs: []*program.Program{p}, Options: platform.EvalOptions{DynamicInstructions: 10000, Seed: 1},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelEvaluate compares serial and pooled evaluation of one
// GA-generation-sized batch of knob configurations — the unit of work the
// parallel evaluation engine accelerates inside every tuning epoch. The
// parallel sub-benchmark uses one worker per CPU; the speedup between the
// two lines is the engine's contribution to the bench trajectory.
func BenchmarkParallelEvaluate(b *testing.B) {
	space := knobs.DefaultSpace()
	rng := rand.New(rand.NewSource(1))
	cfgs := make([]knobs.Config, 50) // the paper's GA population size
	for i := range cfgs {
		cfgs[i] = space.RandomConfig(rng)
	}
	evalOpts := platform.EvalOptions{DynamicInstructions: 5000, Seed: 1}
	syn := microprobe.NewSynthesizer(microprobe.Options{LoopSize: 250, Seed: 1})
	newEval := func() (sched.EvalFunc, error) {
		plat, err := platform.NewSimPlatform(platform.Large())
		if err != nil {
			return nil, err
		}
		return func(cfg knobs.Config, _ float64) (metrics.Vector, error) {
			p, err := syn.Synthesize("bench", cfg)
			if err != nil {
				return nil, err
			}
			resp, err := plat.EvaluateRequest(platform.EvalRequest{Programs: []*program.Program{p}, Options: evalOpts})
			return resp.Metrics, err
		}, nil
	}

	b.Run("serial", func(b *testing.B) {
		eval, err := newEval()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eval.EvaluateBatch(context.Background(), cfgs, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	workers := runtime.GOMAXPROCS(0)
	b.Run(fmt.Sprintf("parallel-%d", workers), func(b *testing.B) {
		pe, err := sched.NewParallelEvaluator(workers, newEval)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pe.EvaluateBatch(context.Background(), cfgs, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEvalCold is the pre-redesign evaluation unit: a fresh platform
// and a fresh plain synthesizer per batch, so every evaluation pays for
// synthesis, validation and predecode. Counterpart of
// BenchmarkEvalSessionReuse.
func BenchmarkEvalCold(b *testing.B) {
	cfgs := benchSessionConfigs()
	opts := platform.EvalOptions{DynamicInstructions: 4000, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syn := microprobe.NewSynthesizer(microprobe.Options{LoopSize: 200, Seed: 1})
		plat, err := platform.NewSimPlatform(platform.Large())
		if err != nil {
			b.Fatal(err)
		}
		for _, cfg := range cfgs {
			p, err := syn.Synthesize("bench-cold", cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := plat.EvaluateRequest(platform.EvalRequest{
				Programs: []*program.Program{p}, Options: opts,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEvalSessionReuse is the redesigned evaluation unit: one reusable
// session whose synthesis memo and simulator scratch survive across the
// batch, pinning the steady-state hot path (allocs/op stays a small
// constant — essentially just the returned metric vectors).
func BenchmarkEvalSessionReuse(b *testing.B) {
	cfgs := benchSessionConfigs()
	opts := platform.EvalOptions{DynamicInstructions: 4000, Seed: 1}
	syn := microprobe.NewCachingSynthesizer(microprobe.Options{LoopSize: 200, Seed: 1})
	plat, err := platform.NewSimPlatform(platform.Large())
	if err != nil {
		b.Fatal(err)
	}
	session := platform.NewEvalSession(plat, syn)
	// Warm the synthesis memo once so the loop measures steady state.
	for _, cfg := range cfgs {
		if _, err := session.Evaluate(platform.EvalRequest{Name: "bench-warm", Config: cfg, Options: opts}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			if _, err := session.Evaluate(platform.EvalRequest{Name: "bench-warm", Config: cfg, Options: opts}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchSessionConfigs draws the small distinct-configuration batch shared by
// the cold/warm evaluation benchmarks.
func benchSessionConfigs() []knobs.Config {
	rng := rand.New(rand.NewSource(11))
	space := knobs.StressSpace()
	seen := map[string]bool{}
	var cfgs []knobs.Config
	for len(cfgs) < 4 {
		cfg := space.RandomConfig(rng)
		if key := cfg.Key(); !seen[key] {
			seen[key] = true
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// BenchmarkReferenceWorkloadMeasurement measures the cost of obtaining one
// reference (target) metric vector for cloning.
func BenchmarkReferenceWorkloadMeasurement(b *testing.B) {
	plat, err := platform.NewSimPlatform(platform.Small())
	if err != nil {
		b.Fatal(err)
	}
	bm, err := workloads.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := bm.Reference(plat, platform.EvalOptions{DynamicInstructions: 10000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if v[metrics.IPC] <= 0 {
			b.Fatal("bad reference")
		}
	}
}
