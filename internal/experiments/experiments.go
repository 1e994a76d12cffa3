// Package experiments reproduces the paper's evaluation section: every table
// (I, II, III) and figure (2-6) has a runner here that regenerates the same
// rows or series from this repository's substrates. The cmd/mgbench binary
// and the repository-level benchmarks both drive these runners; the Budget
// type scales the experiment between "quick" (CI-sized) and "full"
// (paper-shaped) settings.
package experiments

import (
	"fmt"

	"micrograd/internal/cloning"
	"micrograd/internal/evalcache"
	"micrograd/internal/isa"
	"micrograd/internal/microprobe"
	"micrograd/internal/platform"
	"micrograd/internal/report"
	"micrograd/internal/sched"
	"micrograd/internal/stress"
	"micrograd/internal/tuner"
	"micrograd/internal/workloads"
)

// Budget scales an experiment run.
type Budget struct {
	// DynamicInstructions is the per-evaluation simulation length.
	DynamicInstructions int
	// CloneEpochs bounds cloning tuning runs.
	CloneEpochs int
	// StressEpochs bounds stress tuning runs (GD); the GA comparison runs
	// for 1.5x this number, following the paper's observation.
	StressEpochs int
	// LoopSize is the generated kernel's static size.
	LoopSize int
	// Benchmarks restricts the cloning experiments to a subset of the suite;
	// empty means all eight.
	Benchmarks []string
	// BruteForceEvaluations is the evaluation budget of the brute-force
	// reference search.
	BruteForceEvaluations int
	// Tuner names the tuning mechanism of the stress experiments and of
	// micrograd's cloning run (a tuner.ByName spelling such as "cmaes" or
	// "halving-gd"); empty keeps the paper's gradient descent. The cloning
	// figures override it with the mechanism each figure compares.
	Tuner string
	// MaxEvaluations bounds each stress tuning run's proposed-evaluation
	// budget; zero means unlimited (epochs alone bound the run). The
	// tunercmp experiment derives its per-tuner budget from it.
	MaxEvaluations int
	// PowerCapW constrains stress searches to configurations within the
	// power cap; zero means unconstrained.
	PowerCapW float64
	// Seed drives all stochastic choices.
	Seed int64
	// Parallel is the worker count of the parallel evaluation engine:
	// benchmarks within a cloning experiment, the tuning runs within a
	// stress experiment, and the candidate evaluations within each tuning
	// epoch all fan out across this many workers. Values <= 1 run serially.
	// Results are bit-identical at any worker count.
	Parallel int
	// Memo, when set, is a shared evaluation-result cache: every tuning run
	// of the experiment — and every experiment pointed at the same group —
	// reuses each other's evaluations. Keys carry the full evaluation
	// identity (platform, synthesis options, evaluation window, seed), so
	// sharing one group across heterogeneous experiments is safe. Nil keeps
	// a private cache per tuning run.
	Memo *evalcache.Group
	// MemoCap bounds each run's private evaluation cache when Memo is nil:
	// 0 keeps it unbounded (the historical behavior), N > 0 selects an
	// N-entry LRU. Ignored when Memo is set.
	MemoCap int
	// Synth, when set, is a shared caching synthesizer reused by every
	// tuning run whose generation options (LoopSize, Seed) match the
	// budget's; an experiment without one shares one of its own across its
	// runs. Cloning runs ignore it: each benchmark derives its own
	// generation seed, so a shared instance would change the clones.
	Synth *microprobe.CachingSynthesizer
	// Platforms, when set, is a shared pool every single-core run leases
	// its platforms from (CorePlatforms); an experiment without one shares
	// one of its own across its runs.
	Platforms *platform.Pool
	// OnProgress, when set, streams every tuning epoch as a labeled
	// progression point — the same long-format (series, x, y) rows the CSV
	// dumps contain. Runs within one experiment may execute concurrently,
	// so the callback must be safe for concurrent use.
	OnProgress func(ProgressRow)
}

// ProgressRow is one streamed point of a tuning progression: the same
// long-format row report.SeriesCSV writes, tagged with the series name
// ("GD", "GA", a benchmark, a tuner). X is the series' natural axis
// (epochs for most experiments, cumulative evaluations for tunercmp).
type ProgressRow struct {
	Series string  `json:"series"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
}

// progress adapts the budget's OnProgress callback to one run's point
// stream: at maps each point (a stress.EpochPoint, a tuner.EpochRecord) to
// its row's x and y, and every row is labeled with the run's series name.
// Nil when no callback is configured, which keeps streaming off.
func progress[P any](b Budget, series string, at func(P) (x, y float64)) func(P) {
	if b.OnProgress == nil {
		return nil
	}
	cb := b.OnProgress
	return func(p P) {
		x, y := at(p)
		cb(ProgressRow{Series: series, X: x, Y: y})
	}
}

// FullBudget returns the paper-shaped budget used by cmd/mgbench by default.
// (The paper simulates 10M dynamic instructions per evaluation on Gem5; this
// reproduction uses a shorter steady-state window so the full suite finishes
// in minutes rather than days.)
func FullBudget() Budget {
	return Budget{
		DynamicInstructions:   40000,
		CloneEpochs:           60,
		StressEpochs:          30,
		LoopSize:              500,
		BruteForceEvaluations: 4096,
		Seed:                  1,
	}
}

// QuickBudget returns a reduced budget suitable for benchmarks and smoke
// runs: small evaluation windows, few epochs, three representative
// benchmarks.
func QuickBudget() Budget {
	return Budget{
		DynamicInstructions:   6000,
		CloneEpochs:           15,
		StressEpochs:          10,
		LoopSize:              250,
		Benchmarks:            []string{"hmmer", "mcf", "sjeng"},
		BruteForceEvaluations: 512,
		Seed:                  1,
	}
}

// normalized fills missing fields from FullBudget, and a missing Synth
// and Platforms with ones the budget's runs share.
func (b Budget) normalized() Budget {
	full := FullBudget()
	if b.DynamicInstructions <= 0 {
		b.DynamicInstructions = full.DynamicInstructions
	}
	if b.CloneEpochs <= 0 {
		b.CloneEpochs = full.CloneEpochs
	}
	if b.StressEpochs <= 0 {
		b.StressEpochs = full.StressEpochs
	}
	if b.LoopSize <= 0 {
		b.LoopSize = full.LoopSize
	}
	if b.BruteForceEvaluations <= 0 {
		b.BruteForceEvaluations = full.BruteForceEvaluations
	}
	if b.Seed == 0 {
		b.Seed = full.Seed
	}
	if b.Parallel <= 0 {
		b.Parallel = 1
	}
	if b.Synth == nil {
		b.Synth = microprobe.NewCachingSynthesizer(microprobe.Options{LoopSize: b.LoopSize, Seed: b.Seed})
	}
	if b.Platforms == nil {
		b.Platforms = new(platform.Pool)
	}
	return b
}

// CorePlatforms leases one run's platforms of core (platform.Pool.Lease)
// from the budget's pool, a private one when the budget has none (as
// core.Run's budget, which is not normalized).
func (b Budget) CorePlatforms(core platform.CoreSpec) (newPlatform func() (platform.Platform, error), release func()) {
	pool := b.Platforms
	if pool == nil {
		pool = new(platform.Pool)
	}
	return pool.Lease(core)
}

// runParts builds what every tuning run of the budget owns: its first
// platform from newPlatform; a fresh instance of the budget's tuner, so
// concurrent runs never share tuner state (empty keeps the
// gradient-descent default); and its evaluation-cache group — the shared
// Memo when set, else a private MemoCap-entry LRU group when MemoCap > 0,
// else nil, which leaves the run a private unbounded cache.
func (b Budget) runParts(newPlatform func() (platform.Platform, error)) (plat platform.Platform, tn tuner.Tuner, memo *evalcache.Group, err error) {
	if plat, err = newPlatform(); err != nil {
		return nil, nil, nil, err
	}
	tn = tuner.NewGradientDescent()
	if b.Tuner != "" {
		if tn, err = tuner.ByName(b.Tuner); err != nil {
			return nil, nil, nil, err
		}
	}
	if b.Memo != nil || b.MemoCap <= 0 {
		return plat, tn, b.Memo, nil
	}
	lru, err := evalcache.NewLRU(b.MemoCap)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("experiments: %w", err)
	}
	return plat, tn, evalcache.NewGroup(lru), nil
}

// evalOptions is the budget's per-evaluation window.
func (b Budget) evalOptions() platform.EvalOptions {
	return platform.EvalOptions{DynamicInstructions: b.DynamicInstructions, Seed: b.Seed}
}

// StressOptions builds the options of one budgeted stress tuning run on
// platforms from newPlatform, with parallel candidate workers, streaming
// its progression as series: the one way the experiments and micrograd turn
// a budget into a stress run. It applies every stress field of the budget
// as given, not normalized, so callers override only what their run fixes.
func (b Budget) StressOptions(newPlatform func() (platform.Platform, error), parallel int, series string) (opts stress.Options, err error) {
	plat, tn, memo, err := b.runParts(newPlatform)
	if err != nil {
		return opts, err
	}
	return stress.Options{
		Tuner:          tn,
		Platform:       plat,
		EvalOptions:    b.evalOptions(),
		LoopSize:       b.LoopSize,
		Seed:           b.Seed,
		MaxEpochs:      b.StressEpochs,
		MaxEvaluations: b.MaxEvaluations,
		PowerCapW:      b.PowerCapW,
		Parallel:       parallel,
		NewPlatform:    newPlatform,
		Memo:           memo,
		Synth:          b.Synth,
		OnEpoch: progress(b, series, func(p stress.EpochPoint) (x, y float64) {
			return float64(p.Epoch), p.BestValue
		}),
	}, nil
}

// CloneOptions builds the options of one budgeted cloning tuning run on
// platforms from newPlatform, with parallel candidate workers, streaming
// its progression as series: the one way the experiments and micrograd turn
// a budget into a cloning run. Like StressOptions it applies the budget as
// given, not normalized, so callers override only what their run fixes.
func (b Budget) CloneOptions(newPlatform func() (platform.Platform, error), parallel int, series string) (opts cloning.Options, err error) {
	plat, tn, memo, err := b.runParts(newPlatform)
	if err != nil {
		return opts, err
	}
	return cloning.Options{
		Tuner:       tn,
		Platform:    plat,
		EvalOptions: b.evalOptions(),
		LoopSize:    b.LoopSize,
		Seed:        b.Seed,
		MaxEpochs:   b.CloneEpochs,
		Parallel:    parallel,
		NewPlatform: newPlatform,
		// No shared Synth: each benchmark's generation seed differs, so
		// the run builds its own synthesizer; the shared Memo group is
		// still safe because the generation seed is part of the eval key.
		Memo: memo,
		OnEpoch: progress(b, series, func(rec tuner.EpochRecord) (x, y float64) {
			return float64(rec.Epoch), rec.BestLoss
		}),
	}, nil
}

// splitWorkers divides a worker budget between runs independent runs
// executing concurrently (outer) and the fan-out inside each run (inner),
// so total concurrency stays near parallel instead of multiplying to
// parallel².
func splitWorkers(parallel, runs int) (outer, inner int) {
	outer = sched.Workers(parallel, runs)
	inner = parallel / outer
	if inner < 1 {
		inner = 1
	}
	return outer, inner
}

// benchmarks resolves the benchmark subset of the budget.
func (b Budget) benchmarks() ([]workloads.Benchmark, error) {
	if len(b.Benchmarks) == 0 {
		return workloads.SPECInt2006(), nil
	}
	out := make([]workloads.Benchmark, 0, len(b.Benchmarks))
	for _, name := range b.Benchmarks {
		bm, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, bm)
	}
	return out, nil
}

// TableIResult reproduces Table I (the GA parameters used by prior work). It
// renders the GA tuner's own constants, so it shows what the GA baseline
// runs.
type TableIResult struct{}

// TableI returns the Table I contents.
func TableI() TableIResult { return TableIResult{} }

// Render renders Table I.
func (TableIResult) Render() string {
	t := report.NewTable("Table I: GA parameters", "parameter", "value")
	t.AddRow("Population Size", fmt.Sprintf("%d", tuner.GAPopulationSize))
	t.AddRow("Mutation Rate", fmt.Sprintf("%.0f%%", tuner.GAMutationRate*100))
	t.AddRow("Mutation position", "Random")
	t.AddRow("Mutation type", "Random")
	t.AddRow("Crossover Operator", "1-point")
	t.AddRow("Crossover Rate", fmt.Sprintf("%.0f%%", tuner.GACrossoverRate*100))
	t.AddRow("Crossover Position", "Random")
	t.AddRow("Elitism", fmt.Sprintf("%v", tuner.GAElitism))
	t.AddRow("Tournament Size", fmt.Sprintf("%d", tuner.GATournamentSize))
	return t.String()
}

// TableIIResult reproduces Table II (the Small and Large core
// configurations).
type TableIIResult struct {
	Specs []platform.CoreSpec
}

// TableII returns the Table II contents.
func TableII() TableIIResult { return TableIIResult{Specs: platform.Cores()} }

// Render renders Table II.
func (r TableIIResult) Render() string {
	t := report.NewTable("Table II: core configurations", "parameter", "small", "large")
	cell := func(f func(platform.CoreSpec) string) []string {
		out := make([]string, 0, len(r.Specs))
		for _, s := range r.Specs {
			out = append(out, f(s))
		}
		return out
	}
	addRow := func(name string, f func(platform.CoreSpec) string) {
		t.AddRow(append([]string{name}, cell(f)...)...)
	}
	addRow("Frequency", func(s platform.CoreSpec) string { return fmt.Sprintf("%g GHz", s.CPU.FrequencyGHz) })
	addRow("Front-End Width", func(s platform.CoreSpec) string { return fmt.Sprintf("%d", s.CPU.FrontEndWidth) })
	addRow("ROB/LSQ/RSE", func(s platform.CoreSpec) string {
		return fmt.Sprintf("%d/%d/%d", s.CPU.ROBSize, s.CPU.LSQSize, s.CPU.RSESize)
	})
	addRow("ALU/SIMD/FP", func(s platform.CoreSpec) string {
		return fmt.Sprintf("%d/%d/%d", s.CPU.NumALU, s.CPU.NumMul, s.CPU.NumFP)
	})
	addRow("L1/L2 Cache", func(s platform.CoreSpec) string {
		pf := ""
		if s.Memory.L2.NextLinePrefetch {
			pf = " + prefetch"
		}
		return fmt.Sprintf("%dk/%dk%s", s.Memory.L1D.SizeBytes>>10, s.Memory.L2.SizeBytes>>10, pf)
	})
	addRow("Branch Predictor", func(s platform.CoreSpec) string {
		return fmt.Sprintf("%s (%d entries)", s.Branch.Kind, 1<<s.Branch.TableBits)
	})
	return t.String()
}

// TableIIIResult reproduces Table III: the instruction-class distribution of
// the GD-generated power virus.
type TableIIIResult struct {
	Mix     map[isa.Class]float64
	RegDist int
}

// TableIIIFrom extracts the Table III contents from a power-virus report.
func TableIIIFrom(rep stress.Report) TableIIIResult {
	return TableIIIResult{Mix: rep.InstrMix, RegDist: rep.RegDist}
}

// Render renders Table III.
func (r TableIIIResult) Render() string {
	t := report.NewTable("Table III: power virus instruction distribution",
		"Integer", "Float", "Branch", "Load", "Store")
	t.AddRow(
		fmt.Sprintf("%.1f%%", r.Mix[isa.ClassInteger]*100),
		fmt.Sprintf("%.1f%%", r.Mix[isa.ClassFloat]*100),
		fmt.Sprintf("%.1f%%", r.Mix[isa.ClassBranch]*100),
		fmt.Sprintf("%.1f%%", r.Mix[isa.ClassLoad]*100),
		fmt.Sprintf("%.1f%%", r.Mix[isa.ClassStore]*100),
	)
	return t.String() + fmt.Sprintf("register dependency distance: %d\n", r.RegDist)
}
