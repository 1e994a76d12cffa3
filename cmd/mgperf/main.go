// Command mgperf is the performance-trajectory harness behind `make perf`:
// it measures the evaluation pipeline's throughput — synthesized kernels
// simulated on the Large core, the unit of work inside every tuning epoch —
// and writes the numbers as JSON (the BENCH_<n>.json schema documented in
// ROADMAP.md).
//
// Measurements:
//
//   - evaluations/sec and instructions/sec of the stress single-core
//     workload at each -parallel level (1, 2 and GOMAXPROCS by default);
//   - the chip-trace aggregation cost (powersim.SumTracesTime) in ns/call;
//   - the spatial grid-solve cost (GridSupplyModel.NodeDroopsMV plus
//     GridThermalModel.NodeTempsC on a 2x2 grid) in ns/call — the extra
//     per-candidate work a spatial stress tuning epoch pays;
//   - the evaluation-memo and synthesis-memo hit/miss counters of a
//     repeated-configuration pass;
//   - the reduced-fidelity screening speedup (the same batch re-simulated at
//     Fidelity 0.25 with warm synthesis memos) — the per-candidate saving a
//     successive-halving screening rung banks on.
//
// A previous run's output can be embedded via -baseline, which also records
// the evaluations/sec speedup of the current build over it:
//
//	mgperf -out BENCH_6.json -baseline bench_baseline.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"micrograd/internal/evalcache"
	"micrograd/internal/knobs"
	"micrograd/internal/microprobe"
	"micrograd/internal/platform"
	"micrograd/internal/powersim"
	"micrograd/internal/program"
	"micrograd/internal/tuner"
)

// Workload describes the measured workload so runs are comparable.
type Workload struct {
	Core                string `json:"core"`
	Space               string `json:"space"`
	DynamicInstructions int    `json:"dynamic_instructions"`
	LoopSize            int    `json:"loop_size"`
	Evaluations         int    `json:"evaluations"`
	Seed                int64  `json:"seed"`
}

// ThroughputPoint is the measured evaluation throughput at one worker count.
type ThroughputPoint struct {
	Parallel           int     `json:"parallel"`
	Seconds            float64 `json:"seconds"`
	EvalsPerSec        float64 `json:"evals_per_sec"`
	InstructionsPerSec float64 `json:"instructions_per_sec"`
}

// SumTracesCost is the chip-trace aggregation cost.
type SumTracesCost struct {
	Cores       int     `json:"cores"`
	Windows     int     `json:"windows"`
	NSPerCall   float64 `json:"ns_per_call"`
	CallsPerSec float64 `json:"calls_per_sec"`
}

// GridSolveCost is the spatial transient-solve cost: one supply droop pass
// plus one thermal pass over a rows×cols grid with two populated corner
// nodes.
type GridSolveCost struct {
	Rows        int     `json:"rows"`
	Cols        int     `json:"cols"`
	Windows     int     `json:"windows"`
	NSPerCall   float64 `json:"ns_per_call"`
	CallsPerSec float64 `json:"calls_per_sec"`
}

// FidelityCost compares a reduced-fidelity evaluation pass against a
// full-fidelity pass over the same configurations, both with warm synthesis
// memos so only the simulation window differs.
type FidelityCost struct {
	Fidelity    float64 `json:"fidelity"`
	Seconds     float64 `json:"seconds"`
	FullSeconds float64 `json:"full_seconds"`
	// Speedup is full/reduced wall-clock — how much cheaper one screening
	// evaluation is.
	Speedup float64 `json:"speedup"`
}

// MemoCounters are cache hit/miss counters of a memoized component.
type MemoCounters struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// Measurement is one complete harness run.
type Measurement struct {
	GoMaxProcs int               `json:"go_max_procs"`
	GoVersion  string            `json:"go_version"`
	Throughput []ThroughputPoint `json:"throughput"`
	SumTraces  SumTracesCost     `json:"sum_traces"`
	// GridSolve is the spatial PDN/thermal grid solve cost (zero in reports
	// from builds that predate the spatial grid).
	GridSolve GridSolveCost `json:"grid_solve"`
	// EvalMemo counts the evaluation-result memo's hits/misses over a pass
	// that revisits every configuration once (so hits == misses == evals
	// when the memo works).
	EvalMemo MemoCounters `json:"eval_memo"`
	// SynthMemo counts the kernel-synthesis memo's hits/misses over the same
	// pass (absent pre-redesign builds report zeros).
	SynthMemo MemoCounters `json:"synth_memo"`
	// Fidelity is the reduced-fidelity screening cost (zero in reports from
	// builds that predate multi-fidelity evaluation).
	Fidelity FidelityCost `json:"fidelity"`
}

// Report is the BENCH_<n>.json document.
type Report struct {
	PR       int          `json:"pr"`
	Workload Workload     `json:"workload"`
	Current  Measurement  `json:"current"`
	Baseline *Measurement `json:"baseline,omitempty"`
	// SpeedupEvalsPerSec is current/baseline evaluations-per-sec at
	// -parallel 1 (the serial hot path), when a baseline is embedded.
	SpeedupEvalsPerSec float64 `json:"speedup_evals_per_sec,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mgperf:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mgperf", flag.ContinueOnError)
	var (
		evals        = fs.Int("evals", 24, "distinct knob configurations per throughput pass")
		dynInstr     = fs.Int("instructions", 40000, "dynamic instructions per evaluation")
		loopSize     = fs.Int("loop-size", 500, "static kernel size")
		seed         = fs.Int64("seed", 1, "random seed for configuration sampling and trace expansion")
		parallelList = fs.String("parallel", "", "comma-separated worker counts to measure (default \"1,2,N\" with N=GOMAXPROCS)")
		prNum        = fs.Int("pr", 7, "PR number recorded in the report")
		outPath      = fs.String("out", "", "write the JSON report to this file (empty = stdout only)")
		basePath     = fs.String("baseline", "", "embed a previous run's report or measurement as the baseline")
		quick        = fs.Bool("quick", false, "CI smoke budget: few evaluations, short runs")
		memoCap      = fs.Int("memo-cap", 0, "bound the measured evaluation cache to this many entries with LRU eviction (0 = unbounded)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *quick {
		*evals = 4
		*dynInstr = 3000
		*loopSize = 150
	}

	levels, err := parseParallel(*parallelList)
	if err != nil {
		return err
	}

	wl := Workload{
		Core:                string(platform.LargeCore),
		Space:               "stress",
		DynamicInstructions: *dynInstr,
		LoopSize:            *loopSize,
		Evaluations:         *evals,
		Seed:                *seed,
	}

	m := Measurement{GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}

	// Throughput: the stress single-core workload — distinct StressSpace
	// configurations synthesized and simulated with power collection, the
	// exact unit of work inside a power-virus tuning epoch.
	cfgs := sampleConfigs(knobs.StressSpace(), *evals, *seed)
	for _, workers := range levels {
		secs, err := measureThroughput(cfgs, wl, workers)
		if err != nil {
			return err
		}
		m.Throughput = append(m.Throughput, ThroughputPoint{
			Parallel:           workers,
			Seconds:            secs,
			EvalsPerSec:        float64(len(cfgs)) / secs,
			InstructionsPerSec: float64(len(cfgs)) * float64(*dynInstr) / secs,
		})
		fmt.Fprintf(out, "throughput -parallel %d: %.2f evals/sec (%.3g instrs/sec)\n",
			workers, float64(len(cfgs))/secs, float64(len(cfgs))*float64(*dynInstr)/secs)
	}

	// Chip-trace aggregation and spatial grid-solve costs share one pair of
	// simulated core traces.
	traces, windowNS, err := coRunTraces(wl)
	if err != nil {
		return err
	}
	st, err := measureSumTraces(traces, windowNS)
	if err != nil {
		return err
	}
	m.SumTraces = st
	fmt.Fprintf(out, "sum_traces (%d cores, %d windows): %.0f ns/call\n", st.Cores, st.Windows, st.NSPerCall)

	gs, err := measureGridSolve(traces, windowNS)
	if err != nil {
		return err
	}
	m.GridSolve = gs
	fmt.Fprintf(out, "grid_solve (%dx%d grid, %d windows): %.0f ns/call\n", gs.Rows, gs.Cols, gs.Windows, gs.NSPerCall)

	// Memo behaviour: evaluate the batch twice through the memoized stack;
	// the second pass must be all hits.
	em, sm, err := measureMemo(cfgs, wl, *memoCap)
	if err != nil {
		return err
	}
	m.EvalMemo, m.SynthMemo = em, sm
	fmt.Fprintf(out, "eval memo: %d hits / %d misses; synth memo: %d hits / %d misses\n",
		em.Hits, em.Misses, sm.Hits, sm.Misses)

	// Reduced-fidelity screening cost: the successive-halving rungs buy their
	// budget savings with shorter simulation windows on already-synthesized
	// kernels.
	fc, err := measureFidelity(cfgs, wl)
	if err != nil {
		return err
	}
	m.Fidelity = fc
	fmt.Fprintf(out, "fidelity %.2f screening: %.2fx cheaper than full evaluations\n", fc.Fidelity, fc.Speedup)

	rep := Report{PR: *prNum, Workload: wl, Current: m}
	if *basePath != "" {
		base, err := loadBaseline(*basePath)
		if err != nil {
			return err
		}
		rep.Baseline = base
		if cur, ok := evalsPerSecAt(m, 1); ok {
			if old, ok := evalsPerSecAt(*base, 1); ok && old > 0 {
				rep.SpeedupEvalsPerSec = cur / old
			}
		}
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if *outPath != "" {
		if err := os.WriteFile(*outPath, blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *outPath)
	} else {
		out.Write(blob)
	}
	if rep.SpeedupEvalsPerSec > 0 {
		fmt.Fprintf(out, "speedup over baseline (evals/sec, -parallel 1): %.2fx\n", rep.SpeedupEvalsPerSec)
	}
	return nil
}

// parseParallel expands the -parallel list; empty means "1,2,N".
func parseParallel(s string) ([]int, error) {
	if s == "" {
		n := runtime.GOMAXPROCS(0)
		levels := []int{1}
		if n >= 2 {
			levels = append(levels, 2)
		}
		if n > 2 {
			levels = append(levels, n)
		}
		return levels, nil
	}
	var levels []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad -parallel entry %q", part)
		}
		levels = append(levels, v)
	}
	return levels, nil
}

// sampleConfigs draws n distinct configurations deterministically.
func sampleConfigs(space *knobs.Space, n int, seed int64) []knobs.Config {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	cfgs := make([]knobs.Config, 0, n)
	for len(cfgs) < n {
		cfg := space.RandomConfig(rng)
		if key := cfg.Key(); !seen[key] {
			seen[key] = true
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// stressStack builds the stress workload's evaluation stack with the
// constructor every use case runs on: Large-core EvalSessions (pooled at
// workers > 1) sharing the kernel-synthesis memo syn, simulating with power
// collection, behind an evaluation memo over group (nil: a private cache).
func stressStack(wl Workload, workers int, syn *microprobe.CachingSynthesizer, group *evalcache.Group) (*tuner.MemoizingEvaluator, error) {
	newPlat := func() (platform.Platform, error) { return platform.NewSimPlatform(platform.Large()) }
	plat, err := newPlat()
	if err != nil {
		return nil, err
	}
	return tuner.NewPlatformEvaluator(tuner.PlatformOptions{
		Name:        "mgperf",
		Platform:    plat,
		Parallel:    workers,
		NewPlatform: newPlat,
		Synth:       syn,
		Options:     platform.EvalOptions{DynamicInstructions: wl.DynamicInstructions, Seed: wl.Seed, CollectPower: true},
		Memo:        group,
	})
}

// newStressSynth returns an empty kernel-synthesis memo for the workload.
func newStressSynth(wl Workload) *microprobe.CachingSynthesizer {
	return microprobe.NewCachingSynthesizer(microprobe.Options{LoopSize: wl.LoopSize, Seed: wl.Seed})
}

// measureThroughput times one pass over the configuration batch (all
// distinct, so every evaluation is simulated) at the given worker count and
// returns the wall-clock seconds.
func measureThroughput(cfgs []knobs.Config, wl Workload, workers int) (float64, error) {
	eval, err := stressStack(wl, workers, newStressSynth(wl), nil)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := eval.EvaluateBatch(context.Background(), cfgs, 1); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// coRunTraces simulates two co-running cores once, returning their power
// traces and the chip aggregation window — the shared input of the
// aggregation and grid-solve measurements.
func coRunTraces(wl Workload) ([]powersim.PowerTrace, float64, error) {
	syn := microprobe.NewSynthesizer(microprobe.Options{LoopSize: wl.LoopSize, Seed: wl.Seed})
	cfg := knobs.StressSpace().MidConfig()
	prog, err := syn.Synthesize("mgperf-sum", cfg)
	if err != nil {
		return nil, 0, err
	}
	traces := make([]powersim.PowerTrace, 2)
	for i := range traces {
		plat, err := platform.NewSimPlatform(platform.Large())
		if err != nil {
			return nil, 0, err
		}
		resp, err := plat.EvaluateRequest(platform.EvalRequest{
			Programs: []*program.Program{prog},
			Options:  platform.EvalOptions{DynamicInstructions: wl.DynamicInstructions, Seed: wl.Seed + int64(i)},
			Detail:   platform.DetailTrace,
		})
		if err != nil {
			return nil, 0, err
		}
		traces[i] = resp.Trace
	}
	return traces, float64(platform.DefaultWindowCycles) / 2.0, nil
}

// measureSumTraces times the chip aggregation of the simulated core traces.
func measureSumTraces(traces []powersim.PowerTrace, windowNS float64) (SumTracesCost, error) {
	const reps = 200
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := powersim.SumTracesTime(windowNS, nil, traces...); err != nil {
			return SumTracesCost{}, err
		}
	}
	elapsed := time.Since(start)
	perCall := float64(elapsed.Nanoseconds()) / reps
	return SumTracesCost{
		Cores:       len(traces),
		Windows:     len(traces[0].Points),
		NSPerCall:   perCall,
		CallsPerSec: 1e9 / perCall,
	}, nil
}

// measureGridSolve times one spatial solve (supply droops plus thermal temps)
// on a 2x2 grid with the two core traces on opposite corners — the extra
// per-candidate cost of evaluating a chip spatially instead of lumped.
func measureGridSolve(traces []powersim.PowerTrace, windowNS float64) (GridSolveCost, error) {
	nodes := make([]powersim.PowerTrace, 4)
	for i := range nodes {
		nodes[i] = powersim.PowerTrace{WindowNS: windowNS}
	}
	var err error
	if nodes[0], err = powersim.SumTracesTime(windowNS, nil, traces[0]); err != nil {
		return GridSolveCost{}, err
	}
	if nodes[3], err = powersim.SumTracesTime(windowNS, nil, traces[len(traces)-1]); err != nil {
		return GridSolveCost{}, err
	}
	supply := powersim.DefaultGridSupplyModel(2, 2)
	thermal := powersim.DefaultGridThermalModel(2, 2)
	windows := 0
	for _, n := range nodes {
		if len(n.Points) > windows {
			windows = len(n.Points)
		}
	}
	const reps = 20
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := supply.NodeDroopsMV(nodes); err != nil {
			return GridSolveCost{}, err
		}
		if _, err := thermal.NodeTempsC(nodes); err != nil {
			return GridSolveCost{}, err
		}
	}
	elapsed := time.Since(start)
	perCall := float64(elapsed.Nanoseconds()) / reps
	return GridSolveCost{
		Rows:        2,
		Cols:        2,
		Windows:     windows,
		NSPerCall:   perCall,
		CallsPerSec: 1e9 / perCall,
	}, nil
}

// measureMemo exercises both memo layers on a bounded slice of the batch:
// two passes through an evaluation stack over a shared evalcache group
// (with an unbounded cache the second pass must be all evaluation-cache
// hits, and never reaches the synthesizer; memoCap > 0 bounds the cache
// with LRU eviction instead), then one pass through a second stack with an
// empty cache of its own (all synthesis-memo hits). The reported eval
// counters are the shared group's — the same counters mgserve's /stats
// endpoint exposes.
func measureMemo(cfgs []knobs.Config, wl Workload, memoCap int) (MemoCounters, MemoCounters, error) {
	if len(cfgs) > 16 {
		cfgs = cfgs[:16]
	}
	cache, err := evalcache.New(memoCap)
	if err != nil {
		return MemoCounters{}, MemoCounters{}, err
	}
	group := evalcache.NewGroup(cache)
	syn := newStressSynth(wl)
	memo, err := stressStack(wl, 1, syn, group)
	if err != nil {
		return MemoCounters{}, MemoCounters{}, err
	}
	direct, err := stressStack(wl, 1, syn, nil)
	if err != nil {
		return MemoCounters{}, MemoCounters{}, err
	}
	ctx := context.Background()
	for _, eval := range []tuner.Evaluator{memo, memo, direct} {
		if _, err := eval.EvaluateBatch(ctx, cfgs, 1); err != nil {
			return MemoCounters{}, MemoCounters{}, err
		}
	}
	hits, misses := group.Stats()
	em := MemoCounters{Hits: hits, Misses: misses}
	sh, sm := syn.Stats()
	return em, MemoCounters{Hits: sh, Misses: sm}, nil
}

// measureFidelity times one full-fidelity and one reduced-fidelity pass over
// a bounded slice of the batch, both after a warm-up pass that fills the
// synthesis memo, so the difference is simulation-window cost only.
func measureFidelity(cfgs []knobs.Config, wl Workload) (FidelityCost, error) {
	if len(cfgs) > 8 {
		cfgs = cfgs[:8]
	}
	const screeningFidelity = 0.25
	plat, err := platform.NewSimPlatform(platform.Large())
	if err != nil {
		return FidelityCost{}, err
	}
	session := platform.NewEvalSession(plat, newStressSynth(wl))
	pass := func(fidelity float64) (float64, error) {
		start := time.Now()
		for _, cfg := range cfgs {
			opts := platform.EvalOptions{DynamicInstructions: wl.DynamicInstructions, Seed: wl.Seed,
				CollectPower: true, Fidelity: fidelity}
			if _, err := session.Evaluate(platform.EvalRequest{Name: "mgperf", Config: cfg, Options: opts}); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds(), nil
	}
	// Warm-up fills the synthesis memo; the timed passes then pay simulation
	// cost only.
	if _, err := pass(1); err != nil {
		return FidelityCost{}, err
	}
	full, err := pass(1)
	if err != nil {
		return FidelityCost{}, err
	}
	reduced, err := pass(screeningFidelity)
	if err != nil {
		return FidelityCost{}, err
	}
	fc := FidelityCost{Fidelity: screeningFidelity, Seconds: reduced, FullSeconds: full}
	if reduced > 0 {
		fc.Speedup = full / reduced
	}
	return fc, nil
}

// loadBaseline reads a previous report (or bare measurement) as the baseline.
func loadBaseline(path string) (*Measurement, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(blob, &rep); err == nil && len(rep.Current.Throughput) > 0 {
		return &rep.Current, nil
	}
	var m Measurement
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	return &m, nil
}

// evalsPerSecAt returns the measured evaluations/sec at one worker count.
func evalsPerSecAt(m Measurement, parallel int) (float64, bool) {
	for _, p := range m.Throughput {
		if p.Parallel == parallel {
			return p.EvalsPerSec, true
		}
	}
	return 0, false
}
