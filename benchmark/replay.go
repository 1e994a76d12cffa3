package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"micrograd/internal/branchsim"
	"micrograd/internal/cpusim"
	"micrograd/internal/evalcache"
	"micrograd/internal/memsim"
	"micrograd/internal/metrics"
	"micrograd/internal/microprobe"
	"micrograd/internal/multicore"
	"micrograd/internal/platform"
	"micrograd/internal/powersim"
	"micrograd/internal/program"
)

// The replay re-executes every recorded evaluation through the public calls
// each layer exports — synthesis through a platform.EvalSession over a
// capturing evaluator, cpusim.New+RunShared, the powersim model, trace,
// supply, thermal and grid functions, SumTracesTime, EvalKeyer.Key and
// Group.Lookup/Settle — timing each call, and checks that every rebuilt
// metric vector and cache key equals what the job produced in situ, bit for
// bit. simulate and evaluateChip mirror SimPlatform.EvaluateRequest and
// CoRunPlatform's aggregation, and trimNodesAligned copies the unexported
// multicore.trimNodesAligned; when a change to those makes the replay
// differ, its per-layer numbers cannot be trusted and report as n/a (0)
// rather than failing the run.

// calls accumulates the durations of one kind of replayed call.
type calls struct {
	ns    []float64
	total float64
}

func (c *calls) add(d time.Duration) {
	c.ns = append(c.ns, float64(d))
	c.total += float64(d)
}

// timed runs f and adds its duration to c.
func (c *calls) timed(f func()) {
	t := time.Now()
	f()
	c.add(time.Since(t))
}

// medianUS is the median call time in microseconds (0 without calls: the
// layer did no work on this workload).
func (c *calls) medianUS() float64 {
	if len(c.ns) == 0 {
		return 0
	}
	return median(c.ns) / 1e3
}

// replayStats is what the replay measured.
type replayStats struct {
	synthMiss, synthHit                          calls
	key                                          calls
	run                                          calls
	instructions                                 float64
	runs, newProg                                int
	cpuAllocs                                    uint64
	vector                                       calls
	trace, dynPower, droop, didt, thermal        calls
	sumTraces, gridDroop, gridThermal, chipOther calls
	powerAllocs                                  uint64
	powerEvals                                   int
	lookup                                       calls
	evals                                        int
	mismatches                                   []string
}

// computeNS is the replayed cost of the work done inside in-situ
// platform.eval / multicore.eval spans.
func (s *replayStats) computeNS() float64 {
	return s.run.total + s.vector.total + s.powerNS() + s.chipOther.total
}

// powerNS is the replayed time spent in powersim calls.
func (s *replayStats) powerNS() float64 {
	return s.trace.total + s.dynPower.total + s.droop.total + s.didt.total + s.thermal.total +
		s.sumTraces.total + s.gridDroop.total + s.gridThermal.total
}

func (s *replayStats) mismatch(format string, args ...any) {
	s.mismatches = append(s.mismatches, fmt.Sprintf(format, args...))
}

// captureEvaluator stands in for a platform behind an EvalSession so that
// synthesis can be replayed and timed on its own.
type captureEvaluator struct {
	cores int
	progs []*program.Program
}

func (c *captureEvaluator) Name() string  { return "capture" }
func (c *captureEvaluator) NumCores() int { return c.cores }
func (c *captureEvaluator) EvaluateRequest(req platform.EvalRequest) (platform.EvalResponse, error) {
	c.progs = append(c.progs[:0], req.Programs...)
	return platform.EvalResponse{}, nil
}

// replayCore is the replay's copy of one simulated core.
type replayCore struct {
	spec  platform.CoreSpec
	cpu   *cpusim.CPU
	model *powersim.Model
}

func newReplayCore(spec platform.CoreSpec) (*replayCore, error) {
	mem, err := memsim.NewHierarchy(spec.Memory)
	if err != nil {
		return nil, err
	}
	pred, err := branchsim.New(spec.Branch)
	if err != nil {
		return nil, err
	}
	cpu, err := cpusim.New(spec.CPU, mem, pred)
	if err != nil {
		return nil, err
	}
	model, err := powersim.New(spec.Power)
	if err != nil {
		return nil, err
	}
	return &replayCore{spec: spec, cpu: cpu, model: model}, nil
}

// replayer holds one job's replay state.
type replayer struct {
	st        *replayStats
	instances []instance
	cores     map[[2]int]*replayCore
	synth     *microprobe.CachingSynthesizer
	capture   *captureEvaluator
	session   *platform.EvalSession
}

// replayAll replays every traced job's evaluations and cache operations.
func replayAll(rec *recorder) (*replayStats, error) {
	st := &replayStats{}
	evals := make(map[string][]evalRecord)
	for _, e := range rec.evals {
		evals[e.job] = append(evals[e.job], e)
	}
	ops := make(map[string][]cacheOp)
	for _, op := range rec.ops {
		ops[op.job] = append(ops[op.job], op)
	}
	jobs := make([]string, 0, len(rec.keying))
	for job := range rec.keying {
		jobs = append(jobs, job)
	}
	sort.Strings(jobs)
	for _, job := range jobs {
		k := rec.keying[job]
		if err := replayJob(st, rec, k, evals[job], ops[job]); err != nil {
			return nil, fmt.Errorf("replaying %s: %w", job, err)
		}
	}
	return st, nil
}

func replayJob(st *replayStats, rec *recorder, k jobKeying, evals []evalRecord, ops []cacheOp) error {
	sort.SliceStable(evals, func(a, b int) bool { return evals[a].start < evals[b].start })
	puts := make(map[string]metrics.Vector)
	for _, op := range ops {
		if op.put {
			puts[op.key] = op.v
		}
	}
	r := &replayer{
		st: st, instances: rec.instances,
		cores:   make(map[[2]int]*replayCore),
		synth:   microprobe.NewCachingSynthesizer(k.synth),
		capture: &captureEvaluator{},
	}
	r.session = platform.NewEvalSession(r.capture, r.synth)
	keyer := platform.NewEvalKeyer(k.identity, k.synth, k.base)
	for _, e := range evals {
		st.evals++
		st.runs += len(r.coreSpecs(e))
		st.newProg += e.newKernels
		progs, err := r.synthesize(e)
		if err != nil {
			return err
		}
		var key string
		st.key.timed(func() { key = keyer.Key(e.req.Config, e.req.Options.Fidelity) })
		if _, ok := puts[key]; !ok {
			st.mismatch("%s: replayed key of evaluation %d was never stored in situ", e.job, st.evals)
		}
		v, err := r.evaluate(e, progs)
		if err != nil {
			return err
		}
		if !sameBits(v, e.metrics) {
			st.mismatch("%s: replayed metrics of evaluation %d differ from in situ", e.job, st.evals)
		}
	}
	if k.newCache != nil {
		replayLookups(st, k.newCache(), ops, puts)
	}
	return nil
}

// synthesize replays the evaluation's kernel synthesis and returns the
// kernels. The in-situ kernels are not kept; a replayed kernel that differed
// from the one evaluated in situ shows up as a metric mismatch.
func (r *replayer) synthesize(e evalRecord) ([]*program.Program, error) {
	if e.req.Config.IsZero() {
		return nil, fmt.Errorf("%s: evaluation %d names explicit kernels, which the replay cannot rebuild", e.job, r.st.evals)
	}
	r.capture.cores = e.kernels
	_, before := r.synth.Stats()
	start := time.Now()
	_, err := r.session.Evaluate(platform.EvalRequest{Name: e.req.Name, Config: e.req.Config, Options: e.req.Options})
	d := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("synthesizing: %w", err)
	}
	if _, after := r.synth.Stats(); after > before {
		r.st.synthMiss.add(d)
	} else {
		r.st.synthHit.add(d)
	}
	return r.capture.progs, nil
}

// coreSpecs lists the cores of the platform an evaluation ran on.
func (r *replayer) coreSpecs(e evalRecord) []platform.CoreSpec {
	inst := r.instances[e.instance]
	if inst.core != nil {
		return []platform.CoreSpec{*inst.core}
	}
	return inst.chip.Cores
}

// core returns the replay copy of core i of a recorded platform instance.
func (r *replayer) core(inst, i int, spec platform.CoreSpec) (*replayCore, error) {
	k := [2]int{inst, i}
	if c, ok := r.cores[k]; ok {
		return c, nil
	}
	c, err := newReplayCore(spec)
	if err != nil {
		return nil, err
	}
	r.cores[k] = c
	return c, nil
}

// evaluate replays one request the way the recorded platform served it.
func (r *replayer) evaluate(e evalRecord, progs []*program.Program) (metrics.Vector, error) {
	inst := r.instances[e.instance]
	if inst.core != nil {
		c, err := r.core(e.instance, 0, *inst.core)
		if err != nil {
			return nil, err
		}
		opts := e.req.Options
		if len(e.req.FreqOverrides) == 1 && e.req.FreqOverrides[0] > 0 {
			opts.FrequencyGHz = e.req.FreqOverrides[0]
		}
		if e.req.Detail >= platform.DetailTrace {
			opts.CollectPower = true
		}
		v, _, err := r.simulate(c, progs[0], opts, false)
		return v, err
	}
	return r.evaluateChip(e, *inst.chip, progs)
}

// simulate is SimPlatform's evaluation: one cpusim run, the standard metric
// vector and, with power collection, the power metrics. chipTrace also
// derives the untrimmed trace a co-run chip aggregates.
func (r *replayer) simulate(c *replayCore, prog *program.Program, opts platform.EvalOptions, chipTrace bool) (metrics.Vector, powersim.PowerTrace, error) {
	st := r.st
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	res, err := c.cpu.RunShared(prog, opts.EffectiveInstructions(), opts.Seed)
	st.run.add(time.Since(start))
	runtime.ReadMemStats(&ms1)
	st.cpuAllocs += ms1.Mallocs - ms0.Mallocs
	if err != nil {
		return nil, powersim.PowerTrace{}, fmt.Errorf("replaying cpusim run: %w", err)
	}
	st.instructions += float64(res.Instructions)
	if opts.FrequencyGHz > 0 {
		res.Config.FrequencyGHz = opts.FrequencyGHz
	}
	var v metrics.Vector
	st.vector.timed(func() { v = platform.ResultVector(res) })
	var tr powersim.PowerTrace
	if !opts.CollectPower {
		return v, tr, nil
	}
	runtime.ReadMemStats(&ms0)
	st.dynPower.timed(func() { v[metrics.DynamicPowerW] = c.model.DynamicPower(res) })
	if len(res.Windows) > 0 {
		var steady powersim.PowerTrace
		st.trace.timed(func() { steady = c.model.Trace(res).TrimWarmupCapped(platform.TraceWarmupWindows) })
		st.droop.timed(func() { v[metrics.WorstDroopMV] = c.spec.Supply.WorstDroopMV(steady) })
		st.didt.timed(func() { v[metrics.MaxDIDTWPerCycle] = steady.MaxStepWPerCycle() })
		st.thermal.timed(func() { v[metrics.TempC] = c.spec.Thermal.SteadyTempC(steady) })
	}
	if chipTrace {
		st.trace.timed(func() { tr = c.model.Trace(res) })
	}
	runtime.ReadMemStats(&ms1)
	st.powerAllocs += ms1.Mallocs - ms0.Mallocs
	if !chipTrace {
		st.powerEvals++
	}
	return v, tr, nil
}

// evaluateChip is CoRunPlatform's evaluation: per-core simulations with
// power, the summed chip trace on the nanosecond grid and the chip (or
// per-node grid) transient metrics.
func (r *replayer) evaluateChip(e evalRecord, chip multicore.CoRunSpec, progs []*program.Program) (metrics.Vector, error) {
	st := r.st
	n := len(chip.Cores)
	opts := e.req.Options
	opts.CollectPower = true
	freqs := make([]float64, n)
	traces := make([]powersim.PowerTrace, n)
	vecs := make([]metrics.Vector, n)
	for i, spec := range chip.Cores {
		c, err := r.core(e.instance, i, spec)
		if err != nil {
			return nil, err
		}
		coreOpts := opts
		freqs[i] = spec.CPU.FrequencyGHz
		if len(e.req.FreqOverrides) == n && e.req.FreqOverrides[i] > 0 {
			freqs[i] = e.req.FreqOverrides[i]
			coreOpts.FrequencyGHz = freqs[i]
		}
		prog := progs[0]
		if len(progs) == n {
			prog = progs[i]
		}
		if vecs[i], traces[i], err = r.simulate(c, prog, coreOpts, true); err != nil {
			return nil, err
		}
	}
	windowNS := 0.0
	var offsets []float64
	for i, spec := range chip.Cores {
		windowNS = math.Max(windowNS, float64(spec.CPU.WindowCycles)/freqs[i])
		if chip.OffsetCycles != nil {
			offsets = append(offsets, float64(chip.OffsetCycles[i])/freqs[i])
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	defer func() {
		runtime.ReadMemStats(&ms1)
		st.powerAllocs += ms1.Mallocs - ms0.Mallocs
		st.powerEvals++
	}()
	var sum powersim.PowerTrace
	var err error
	st.sumTraces.timed(func() { sum, err = powersim.SumTracesTime(windowNS, offsets, traces...) })
	if err != nil {
		return nil, fmt.Errorf("replaying chip aggregation: %w", err)
	}
	v := metrics.Vector{}
	var steady powersim.PowerTrace
	st.chipOther.timed(func() {
		for i := range vecs {
			v[coreMetric(i, metrics.IPC)] = vecs[i][metrics.IPC]
			v[coreMetric(i, metrics.DynamicPowerW)] = vecs[i][metrics.DynamicPowerW]
			v[coreMetric(i, metrics.WorstDroopMV)] = vecs[i][metrics.WorstDroopMV]
			v[coreMetric(i, metrics.FreqGHz)] = freqs[i]
		}
		v[metrics.ChipPowerW] = sum.AvgPowerW()
		steady = sum.TrimWarmupCapped(platform.TraceWarmupWindows)
		v[metrics.ChipMaxDIDTWPerNS] = steady.MaxStepWPerNS()
	})
	if !chip.Spatial() {
		st.droop.timed(func() { v[metrics.ChipWorstDroopMV] = chip.Supply.WorstDroopMV(steady) })
		st.thermal.timed(func() { v[metrics.ChipTempC] = chip.Thermal.SteadyTempC(steady) })
		return v, nil
	}
	fp := chip.Floorplan
	nodes := make([]powersim.PowerTrace, fp.NodeCount())
	for k := range nodes {
		var ts []powersim.PowerTrace
		var offs []float64
		for i := range traces {
			if fp.Nodes[i] != k {
				continue
			}
			ts = append(ts, traces[i])
			if offsets != nil {
				offs = append(offs, offsets[i])
			}
		}
		if len(ts) == 0 {
			nodes[k] = powersim.PowerTrace{WindowNS: windowNS}
			continue
		}
		st.sumTraces.timed(func() { nodes[k], err = powersim.SumTracesTime(windowNS, offs, ts...) })
		if err != nil {
			return nil, fmt.Errorf("replaying node aggregation: %w", err)
		}
	}
	var trimmed []powersim.PowerTrace
	st.chipOther.timed(func() { trimmed = trimNodesAligned(nodes, platform.TraceWarmupWindows) })
	var droops, temps []float64
	st.gridDroop.timed(func() { droops, err = chip.GridSupply.NodeDroopsMV(trimmed) })
	if err != nil {
		return nil, fmt.Errorf("replaying grid supply solve: %w", err)
	}
	st.gridThermal.timed(func() { temps, err = chip.GridThermal.NodeTempsC(trimmed) })
	if err != nil {
		return nil, fmt.Errorf("replaying grid thermal solve: %w", err)
	}
	st.chipOther.timed(func() {
		worstDroop, worstTemp := droops[0], temps[0]
		for k := range droops {
			v[metrics.NodeDroopMV(k/fp.Cols, k%fp.Cols)] = droops[k]
			v[metrics.NodeTempC(k/fp.Cols, k%fp.Cols)] = temps[k]
			worstDroop = math.Max(worstDroop, droops[k])
			worstTemp = math.Max(worstTemp, temps[k])
		}
		v[metrics.ChipWorstDroopMV] = worstDroop
		v[metrics.ChipTempC] = worstTemp
	})
	return v, nil
}

// trimNodesAligned drops the same number of warmup windows from every
// non-empty node trace — up to n, capped at a quarter of the shortest — so
// the node traces stay time-aligned (the co-run platform's policy).
func trimNodesAligned(nodes []powersim.PowerTrace, n int) []powersim.PowerTrace {
	shortest := -1
	for _, t := range nodes {
		if !t.Empty() && (shortest < 0 || len(t.Points) < shortest) {
			shortest = len(t.Points)
		}
	}
	if shortest < 0 {
		return nodes
	}
	n = min(n, shortest/4)
	out := make([]powersim.PowerTrace, len(nodes))
	for i, t := range nodes {
		if t.Empty() {
			out[i] = t
			continue
		}
		out[i] = t.TrimWarmup(n)
	}
	return out
}

// coreMetric names core i's copy of a per-core chip metric.
func coreMetric(core int, name string) string { return fmt.Sprintf("core%d_%s", core, name) }

// replayLookups replays a cache's recorded Get sequence through a fresh
// Group over an empty cache of the same kind, settling every owned flight
// with the vector stored in situ, and times each Lookup plus its Settle.
func replayLookups(st *replayStats, c evalcache.Cache, ops []cacheOp, puts map[string]metrics.Vector) {
	g := evalcache.NewGroup(c)
	for _, op := range ops {
		if op.put {
			continue
		}
		start := time.Now()
		// A serial replay settles every flight it owns before the next
		// lookup, so no lookup ever has to wait on one.
		if _, f, owner := g.Lookup(op.key); owner {
			if v, ok := puts[op.key]; ok {
				g.Settle(op.key, f, v, nil)
			} else {
				g.Settle(op.key, f, nil, errNotStored)
			}
		}
		st.lookup.add(time.Since(start))
	}
}

var errNotStored = fmt.Errorf("evaluation was never stored in situ")

// sameBits reports whether two metric vectors hold the same names with
// bit-identical values.
func sameBits(a, b metrics.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for k, x := range a {
		y, ok := b[k]
		if !ok || math.Float64bits(x) != math.Float64bits(y) {
			return false
		}
	}
	return true
}
