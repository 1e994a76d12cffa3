package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"micrograd/internal/cloning"
	"micrograd/internal/evalcache"
	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/microprobe"
	"micrograd/internal/multicore"
	"micrograd/internal/platform"
	"micrograd/internal/report"
	"micrograd/internal/stress"
	"micrograd/internal/tuner"
	"micrograd/internal/workloads"
)

// workload is one set of inputs the benchmark runs. setup builds everything
// the first timed job needs; it is timed (several times) as setup_s.
type workload struct {
	name  string
	why   string
	setup func(seed int64, smoke bool, rec *recorder) (session, error)
}

// allWorkloads are the benchmark's workloads, in BENCHMARK.json order. They
// are sized for two CPUs: never more than two busy evaluation workers or
// clients.
var allWorkloads = []workload{
	{"stress-power-large", "serial power-virus GD on the Large core: cpusim and the per-core powersim integrators, nothing shared", setupStressPowerLarge},
	{"clone-suite", "paper's headline cloning of all 8 SPEC stand-ins, 2 workers: cpusim-bound, collects no power", setupCloneSuite},
	{"spatial-4c-2x2", "cmaes spatial droop virus on 4 Small cores on a 2x2 grid, 2 workers: the only multicore and grid-solve load", setupSpatial},
	{"serve-mixed", "2 closed-loop HTTP clients on mgserve, short jobs with repeats over an evicting LRU: evalcache, tuner, serve", setupServeMixed},
}

func workloadByName(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// session is a set-up workload ready to run its timed window.
type session interface {
	run(ctx context.Context, w window) (windowResult, error)
	close()
}

// window bounds one timed run: jobs start until deadline, or, with all set,
// every job of the workload's list runs exactly once (pin recording).
type window struct {
	deadline time.Time
	all      bool
	rec      *recorder
}

// windowResult is what a timed window produced.
type windowResult struct {
	jobs []jobOutcome
	// candidates counts proposed candidate evaluations: lookups in the
	// evaluation caches, hits and misses alike.
	candidates uint64
	// repeatable marks a window whose repeats of a job do identical work
	// (every run builds its platform, synthesizer and cache afresh), so the
	// end-to-end timings may take each job's fastest run.
	repeatable bool
	// workers is the number of evaluation workers a traced job has.
	workers int
	// layer holds per-layer metrics the workload measures outside the replay.
	layer map[string]float64
	// notes are lines the report prints about the window.
	notes []string
}

// jobOutcome is one finished job.
type jobOutcome struct {
	key        string
	id         string
	wall       time.Duration
	candidates uint64
	allocs     uint64 // heap allocations of a batch job's run
	evalHits   uint64
	synthHits  uint64
	synthMiss  uint64
	digest     string
	err        error
	// verify re-derives the job's result independently (self-consistency).
	verify func() error
	// cloneErr is the clone's mean absolute error (NaN for other jobs).
	cloneErr float64
}

// jobContext identifies one job occurrence to the tracing wrappers.
type jobContext struct {
	id   string
	rec  *recorder
	root int
	last int64
}

// startJob opens a job's root span when the run is traced.
func startJob(rec *recorder, id string) *jobContext {
	jc := &jobContext{id: id, rec: rec}
	if rec != nil {
		jc.last = rec.tr.now()
		jc.root = rec.tr.add(id, "job", 0, jc.last, jc.last)
	}
	return jc
}

// end closes the job's root span.
func (jc *jobContext) end() {
	if jc.rec != nil {
		jc.rec.tr.setEnd(jc.root, jc.rec.tr.now())
	}
}

// epoch closes the tuning epoch that just ended (traced runs only): epochs
// are back-to-back intervals from the job's start to each OnEpoch call.
func (jc *jobContext) epoch() {
	now := jc.rec.tr.now()
	jc.rec.tr.add(jc.id, "tuner.epoch", jc.root, jc.last, now)
	jc.last = now
}

// batchJob is one tuning job of a batch workload.
type batchJob struct {
	key string
	run func(ctx context.Context, jc *jobContext) jobOutcome
}

// batchSession runs a fixed job list in passes until the window ends. Lists
// are sized for about four passes in a 20 s window: jobs are short, so a
// window still averages over dozens of inputs, and every job runs often
// enough for its fastest run to be one a busy host did not slow.
type batchSession struct {
	jobs    []batchJob
	workers int
	layer   map[string]float64
}

func (b *batchSession) close() {}

func (b *batchSession) run(ctx context.Context, w window) (windowResult, error) {
	res := windowResult{workers: b.workers, layer: b.layer, repeatable: true}
	for i := 0; ; i++ {
		if w.all && i == len(b.jobs) || !w.all && i > 0 && !time.Now().Before(w.deadline) {
			break
		}
		j := b.jobs[i%len(b.jobs)]
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		jc := startJob(w.rec, fmt.Sprintf("%s#%d", j.key, i))
		out := j.run(ctx, jc)
		jc.end()
		out.key, out.id, out.wall = j.key, jc.id, time.Since(start)
		runtime.ReadMemStats(&ms1)
		out.allocs = ms1.Mallocs - ms0.Mallocs
		res.candidates += out.candidates
		res.jobs = append(res.jobs, out)
	}
	return res, nil
}

// jobMemo builds a job's private evaluation cache group (timed when traced)
// and registers what the replay needs to rebuild the job's keys.
func jobMemo(jc *jobContext, raw platform.Platform, synth microprobe.Options, base platform.EvalOptions) *evalcache.Group {
	newCache := func() evalcache.Cache { return evalcache.NewMap() }
	if jc.rec != nil {
		jc.rec.setKeying(jc.id, jobKeying{identity: platform.EvalIdentityOf(raw), synth: synth, base: base, newCache: newCache})
	}
	return evalcache.NewGroup(wrapCache(jc.rec, jc.id, newCache()))
}

// wrapNew builds a worker platform for a job, wrapped when it is traced.
func wrapNew(jc *jobContext, newPlatform func() (platform.Platform, error)) (platform.Platform, error) {
	p, err := newPlatform()
	if err != nil {
		return nil, err
	}
	return wrapPlatform(jc.rec, jc.id, p), nil
}

// evaluateFresh evaluates cfg on a fresh platform through a fresh session
// and synthesizer — the independent re-derivation self-consistency checks
// compare a job's reported best metrics against.
func evaluateFresh(plat platform.Platform, synth microprobe.Options, name string, cfg knobs.Config, opts platform.EvalOptions) (metrics.Vector, error) {
	re, ok := plat.(platform.RequestEvaluator)
	if !ok {
		return nil, fmt.Errorf("platform %s serves no requests", plat.Name())
	}
	sess := platform.NewEvalSession(re, microprobe.NewCachingSynthesizer(synth))
	resp, err := sess.Evaluate(platform.EvalRequest{Name: name, Config: cfg, Options: opts})
	return resp.Metrics, err
}

// verifyFresh returns a job's self-consistency check: its best
// configuration, evaluated on a fresh platform through a fresh session and
// synthesizer, must reproduce the metrics the job reported. It captures only
// what the check needs, so finished jobs do not keep their memos alive.
func verifyFresh(newPlatform func() (platform.Platform, error), synth microprobe.Options, name string,
	cfg knobs.Config, opts platform.EvalOptions, want metrics.Vector) func() error {
	return func() error {
		plat, err := newPlatform()
		if err != nil {
			return err
		}
		v, err := evaluateFresh(plat, synth, name, cfg, opts)
		if err != nil {
			return err
		}
		if !sameBits(v, want) {
			return fmt.Errorf("best configuration re-evaluated to different metrics")
		}
		return nil
	}
}

// stressSpec is a stress-tuning job family.
type stressSpec struct {
	kind         stress.Kind
	newPlatform  func() (platform.Platform, error)
	space        *knobs.Space
	tuner        string
	instructions int
	loopSize     int
	maxEpochs    int
	maxEvals     int
	parallel     int
}

func (s stressSpec) evalOptions(seed int64) platform.EvalOptions {
	return platform.EvalOptions{DynamicInstructions: s.instructions, Seed: seed, CollectPower: true}
}

// warmupEvals is how many configurations a stress workload's set-up
// evaluates once on a fresh platform: the lazy set-up (page faults,
// first-use tables) its first timed job would otherwise pay.
const warmupEvals = 4

// warmupSeed seeds every warm-up (configurations, kernels, the mgserve
// warm-up job), so set-up does the same work whatever the workload seed and
// setup_s measures set-up rather than the seed's inputs.
const warmupSeed = 0

func (s stressSpec) warmup() error {
	plat, err := s.newPlatform()
	if err != nil {
		return err
	}
	starts, err := latinStarts(s.space, warmupSeed, warmupEvals)
	if err != nil {
		return err
	}
	for _, cfg := range starts {
		if _, err := evaluateFresh(plat, microprobe.Options{LoopSize: s.loopSize, Seed: warmupSeed}, "warmup", cfg, s.evalOptions(warmupSeed)); err != nil {
			return err
		}
	}
	return nil
}

// strataBlock is the block length of latinStarts.
const strataBlock = 16

// latinStarts draws n starting configurations in blocks of strataBlock:
// within a block every knob's index range is cut into strataBlock equal
// strata, each used exactly once (a Latin hypercube). Tuning cost depends on
// where in the space a search runs, so spreading the starts evenly — rather
// than drawing each at random — keeps a timed window's mix of cheap and
// expensive searches, and with it the throughput, alike from seed to seed.
func latinStarts(space *knobs.Space, seed int64, n int) ([]knobs.Config, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]knobs.Config, 0, n)
	for len(out) < n {
		perms := make([][]int, space.Len())
		for k := range perms {
			perms[k] = rng.Perm(strataBlock)
		}
		for j := 0; j < strataBlock && len(out) < n; j++ {
			idx := make([]int, space.Len())
			for k := range idx {
				levels := space.Def(k).NumValues()
				u := (float64(perms[k][j]) + rng.Float64()) / strataBlock
				idx[k] = min(int(u*float64(levels)), levels-1)
			}
			cfg, err := space.ConfigFromIndices(idx)
			if err != nil {
				return nil, err
			}
			out = append(out, cfg)
		}
	}
	return out, nil
}

func (s stressSpec) job(seed int64, start knobs.Config) batchJob {
	return batchJob{key: fmt.Sprintf("%s/seed=%d", s.kind, seed), run: func(ctx context.Context, jc *jobContext) jobOutcome {
		raw, err := s.newPlatform()
		if err != nil {
			return jobOutcome{err: err}
		}
		tn, err := tuner.ByName(s.tuner)
		if err != nil {
			return jobOutcome{err: err}
		}
		synth := microprobe.NewCachingSynthesizer(microprobe.Options{LoopSize: s.loopSize, Seed: seed})
		evalOpts := s.evalOptions(seed)
		memo := jobMemo(jc, raw, synth.Options(), evalOpts)
		opts := stress.Options{
			Space: s.space, Tuner: tn, Platform: wrapPlatform(jc.rec, jc.id, raw),
			EvalOptions: evalOpts, LoopSize: s.loopSize, Seed: seed, Initial: start,
			MaxEpochs: s.maxEpochs, MaxEvaluations: s.maxEvals,
			Parallel: s.parallel, Memo: memo, Synth: synth,
		}
		if s.parallel > 1 {
			opts.NewPlatform = func() (platform.Platform, error) { return wrapNew(jc, s.newPlatform) }
		}
		if jc.rec != nil {
			opts.OnEpoch = func(stress.EpochPoint) { jc.epoch() }
		}
		rep, err := stress.Run(ctx, s.kind, opts)
		hits, misses := memo.Stats()
		out := jobOutcome{candidates: hits + misses, evalHits: hits, err: err, cloneErr: math.NaN()}
		out.synthHits, out.synthMiss = synth.Stats()
		if err != nil {
			return out
		}
		out.digest = stressDigest(rep)
		out.verify = verifyFresh(s.newPlatform, synth.Options(), string(s.kind), rep.Config, evalOpts, rep.BestMetrics)
		return out
	}}
}

// stressSession sets up a batch of stress jobs with seeds seed..seed+n-1,
// each starting from its own stratified configuration.
func stressSession(s stressSpec, seed int64, n int) (session, error) {
	starts, err := latinStarts(s.space, seed, n)
	if err != nil {
		return nil, err
	}
	if err := s.warmup(); err != nil {
		return nil, fmt.Errorf("warm-up evaluation: %w", err)
	}
	b := &batchSession{workers: max(s.parallel, 1)}
	for i, start := range starts {
		b.jobs = append(b.jobs, s.job(seed+int64(i), start))
	}
	return b, nil
}

// Job list sizes and per-job budgets of the batch workloads (see
// batchSession).
const (
	stressJobs, stressEvals   = 32, 60
	spatialJobs, spatialEvals = 16, 24
	cloneEpochs               = 10
)

func setupStressPowerLarge(seed int64, smoke bool, _ *recorder) (session, error) {
	s := stressSpec{
		kind:        stress.PowerVirus,
		newPlatform: func() (platform.Platform, error) { return platform.NewSimPlatform(platform.Large()) },
		space:       knobs.StressSpace(), tuner: "gd",
		instructions: 40000, loopSize: 500, maxEpochs: 30, maxEvals: stressEvals, parallel: 1,
	}
	n := stressJobs
	if smoke {
		s.instructions, s.loopSize, s.maxEpochs, s.maxEvals, n = 3000, 100, 3, 0, 2
	}
	return stressSession(s, seed, n)
}

func setupSpatial(seed int64, smoke bool, _ *recorder) (session, error) {
	spec := multicore.Homogeneous(platform.Small(), 4).WithGrid(2, 2, nil)
	s := stressSpec{
		kind:        stress.SpatialNoiseVirus,
		newPlatform: func() (platform.Platform, error) { return multicore.New(spec, 1) },
		space:       knobs.SpatialStressSpace(4), tuner: "cmaes",
		instructions: 40000, loopSize: 500, maxEpochs: 30, maxEvals: spatialEvals, parallel: 2,
	}
	n := spatialJobs
	if smoke {
		s.instructions, s.loopSize, s.maxEpochs, s.maxEvals, n = 2000, 100, 2, 8, 1
	}
	return stressSession(s, seed, n)
}

// setupCloneSuite profiles the reference metrics of every benchmark (the
// paper's cloning input) and queues one cloning job per benchmark, each with
// its own tuner seed.
func setupCloneSuite(seed int64, smoke bool, _ *recorder) (session, error) {
	instr, loop, epochs := 40000, 500, cloneEpochs
	bms := workloads.SPECInt2006()
	if smoke {
		instr, loop, epochs = 3000, 100, 2
		bms = bms[:2]
	}
	core := platform.Large()
	newPlatform := func() (platform.Platform, error) { return platform.NewSimPlatform(core) }
	evalOpts := platform.EvalOptions{DynamicInstructions: instr, Seed: seed}
	b := &batchSession{workers: 2, layer: map[string]float64{}}
	var refMS []float64
	targets := make([]metrics.Vector, len(bms))
	for i, bm := range bms {
		plat, err := newPlatform()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if targets[i], err = bm.Reference(plat, evalOpts); err != nil {
			return nil, fmt.Errorf("profiling %s: %w", bm.Name, err)
		}
		refMS = append(refMS, float64(time.Since(start))/1e6)
	}
	for i, bm := range bms {
		b.jobs = append(b.jobs, cloneJob(bm.Name, targets[i], seed+int64(i)*101, newPlatform, evalOpts, loop, epochs))
	}
	b.layer["cloning.reference_ms"] = median(refMS)
	return b, nil
}

func cloneJob(name string, target metrics.Vector, seed int64, newPlatform func() (platform.Platform, error),
	evalOpts platform.EvalOptions, loop, epochs int) batchJob {
	return batchJob{key: fmt.Sprintf("clone/%s/seed=%d", name, seed), run: func(ctx context.Context, jc *jobContext) jobOutcome {
		raw, err := newPlatform()
		if err != nil {
			return jobOutcome{err: err}
		}
		synth := microprobe.NewCachingSynthesizer(microprobe.Options{LoopSize: loop, Seed: seed})
		memo := jobMemo(jc, raw, synth.Options(), evalOpts)
		opts := cloning.Options{
			Platform: wrapPlatform(jc.rec, jc.id, raw), EvalOptions: evalOpts,
			LoopSize: loop, Seed: seed, MaxEpochs: epochs, Parallel: 2,
			NewPlatform: func() (platform.Platform, error) { return wrapNew(jc, newPlatform) },
			Memo:        memo, Synth: synth,
		}
		if jc.rec != nil {
			opts.OnEpoch = func(tuner.EpochRecord) { jc.epoch() }
		}
		rep, err := cloning.Clone(ctx, name, target, opts)
		hits, misses := memo.Stats()
		out := jobOutcome{candidates: hits + misses, evalHits: hits, err: err, cloneErr: math.NaN()}
		out.synthHits, out.synthMiss = synth.Stats()
		if err != nil {
			return out
		}
		out.digest = cloneDigest(rep)
		out.cloneErr = report.MeanAbsError(rep.Accuracy)
		out.verify = verifyFresh(newPlatform, synth.Options(), "clone-"+name, rep.Config, evalOpts, rep.Clone)
		return out
	}}
}
