// Command benchmark is the repository's benchmark: it runs one workload of
// real tuning jobs through the public entry points (stress.Run,
// cloning.Clone, and mgserve's HTTP handler on a loopback listener) for a
// fixed time, checks every job's output, and prints every metric by name
// with its unit; the last line of standard output is one JSON object.
//
//	benchmark --workload stress-power-large --seed 1 --seconds 20 --trace 0
//	benchmark --workload serve-mixed --seed 2 --trace 1 --cpuprofile
//	benchmark --workload clone-suite --seed 1 --update
//	benchmark compare runs/parent runs/change
//	benchmark summarize runs/parent
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it records spans at every layer boundary it can reach, replays
// the recorded evaluations layer by layer, and reports the per-layer
// metrics. See README.md for the workloads, metrics and method.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
		case "summarize":
			os.Exit(runSummarize(os.Args[2:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(runBench(os.Args[1:], os.Stdout, os.Stderr))
}

// maxProcs bounds the benchmark's parallelism: every workload is sized for
// two CPUs, and no run uses more than the machine has.
const maxProcs = 2

// pinsPath holds the pinned job digests, relative to the repository root
// the benchmark runs from.
const pinsPath = "benchmark/testdata/pins.json"

// config is a parsed benchmark invocation.
type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	traceDir   string
	smoke      bool
	update     bool
	cpuProfile bool
	memProfile bool
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "workload to run (required)")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed: every input is derived from it")
	fs.Float64Var(&c.seconds, "seconds", 20, "length of the timed window in seconds")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	fs.StringVar(&c.traceDir, "trace-dir", "", "directory for trace.json and profiles (default .bench_out/<workload>-seed<seed>)")
	scale := fs.String("scale", "full", "full, or smoke for a seconds-long run of tiny jobs")
	fs.BoolVar(&c.update, "update", false, "run every job of the workload once and re-record its pinned digests for this seed")
	fs.BoolVar(&c.cpuProfile, "cpuprofile", false, "write a CPU profile of the timed window into the trace directory (needs --trace 1)")
	fs.BoolVar(&c.memProfile, "memprofile", false, "write a heap profile after the timed window into the trace directory (needs --trace 1)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	switch {
	case fs.NArg() > 0:
		return c, fmt.Errorf("unexpected arguments %v", fs.Args())
	case c.workload == "":
		return c, fmt.Errorf("--workload is required")
	case *traceFlag != 0 && *traceFlag != 1:
		return c, fmt.Errorf("--trace must be 0 or 1")
	case *scale != "full" && *scale != "smoke":
		return c, fmt.Errorf("--scale must be full or smoke")
	case !(c.seconds > 0):
		return c, fmt.Errorf("--seconds must be positive")
	}
	c.trace, c.smoke = *traceFlag == 1, *scale == "smoke"
	if (c.cpuProfile || c.memProfile) && !c.trace {
		return c, fmt.Errorf("--cpuprofile and --memprofile need --trace 1")
	}
	if c.update && c.smoke {
		return c, fmt.Errorf("--update records full-scale pins only")
	}
	if c.traceDir == "" {
		c.traceDir = filepath.Join(".bench_out", fmt.Sprintf("%s-seed%d", c.workload, c.seed))
	}
	return c, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runBench(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	res, err := bench(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(blob))
	return 0
}

// maxJobLines caps the per-job lines of the report (mgserve runs
// thousands of jobs).
const maxJobLines = 100

// setupRepeats is how many times a run builds its workload to time set-up;
// the median is reported and the last build is the one that runs.
const setupRepeats = 15

func bench(cfg config, out io.Writer) (result, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return result{}, err
	}
	procs := min(runtime.NumCPU(), maxProcs)
	runtime.GOMAXPROCS(procs)
	fmt.Fprintf(out, "benchmark: workload=%s seed=%d seconds=%g trace=%t scale=%s gomaxprocs=%d nproc=%d go=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, map[bool]string{true: "smoke", false: "full"}[cfg.smoke],
		procs, runtime.NumCPU(), runtime.Version())

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			return result{}, fmt.Errorf("creating trace directory: %w", err)
		}
	}
	repeats := setupRepeats
	if cfg.smoke {
		repeats = 2
	}
	var sess session
	var setupS []float64
	for i := 0; i < repeats; i++ {
		// Each set-up starts from a collected heap, so none pays for the
		// garbage of the one before.
		runtime.GC()
		start := time.Now()
		s, err := w.setup(cfg.seed, cfg.smoke, rec)
		if err != nil {
			if sess != nil {
				sess.close()
			}
			return result{}, fmt.Errorf("setting up %s: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if sess != nil {
			sess.close()
		}
		sess = s
	}
	defer sess.close()

	ctx := context.Background()
	stopProfile, err := startCPUProfile(cfg)
	if err != nil {
		return result{}, err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	win, err := sess.run(ctx, window{deadline: start.Add(time.Duration(cfg.seconds * float64(time.Second))), all: cfg.update, rec: rec})
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if perr := stopProfile(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		return result{}, fmt.Errorf("running %s: %w", w.name, err)
	}
	if cfg.memProfile {
		if err := writeHeapProfile(cfg.traceDir); err != nil {
			return result{}, err
		}
	}
	if win.candidates == 0 {
		return result{}, fmt.Errorf("%s proposed no candidates", w.name)
	}

	allPins, err := loadPins(pinsPath)
	if err != nil {
		return result{}, err
	}
	if r, ok := sess.(*serveSession); ok && rec != nil {
		r.replicate(ctx, win.jobs)
	}
	var pinned map[string]string
	if !cfg.smoke && !cfg.update {
		pinned = allPins.forSeed(w.name, cfg.seed)
	}
	v := verifyJobs(win.jobs, pinned)
	fmt.Fprintf(out, "verify: %s\n", v.summary(cfg.seed))
	for _, e := range v.errors {
		fmt.Fprintf(out, "verify: FAIL %s\n", e)
	}
	for _, n := range win.notes {
		fmt.Fprintf(out, "window: %s\n", n)
	}
	if cfg.update {
		if v.failed > 0 {
			return result{}, fmt.Errorf("not recording pins: %d jobs failed", v.failed)
		}
		allPins.set(w.name, cfg.seed, v.digests)
		if err := allPins.save(pinsPath); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "update: pinned %d digests for %s seed %d in %s\n", len(v.digests), w.name, cfg.seed, pinsPath)
	}

	res := result{Attempted: len(win.jobs), Failed: v.failed, Metrics: map[string]metric{}}
	jt := timeJobs(win, elapsed, ms1.Mallocs-ms0.Mallocs)
	thru := jt.candidates / jt.seconds
	if rec != nil {
		layer, failed, err := traceReport(cfg, rec, win, thru, out)
		if err != nil {
			return result{}, err
		}
		res.Attempted++ // the replay and attribution checks
		if failed {
			res.Failed++
		}
		for _, d := range perLayerMetrics {
			res.Metrics[d.name] = metric{Value: layer[d.name], Unit: d.unit}
		}
	} else {
		var cloneErr []float64
		for _, j := range win.jobs {
			if !math.IsNaN(j.cloneErr) {
				cloneErr = append(cloneErr, j.cloneErr)
			}
		}
		e2e := map[string]float64{
			"candidates_per_s":     thru,
			"setup_s":              median(setupS),
			"allocs_per_candidate": jt.allocs / jt.candidates,
			"peak_rss_mb":          peakRSSMB(),
		}
		for _, d := range endToEndMetrics {
			res.Metrics[d.name] = metric{Value: e2e[d.name], Unit: d.unit}
		}
		fmt.Fprintf(out, "jobs: %d runs in %.3f s, %d candidates\n", len(win.jobs), elapsed.Seconds(), win.candidates)
		if win.repeatable {
			fmt.Fprintf(out, "  timed by each of %d distinct jobs' fastest run: %.0f candidates in %.3f s\n",
				len(jt.wall), jt.candidates, jt.seconds)
		} else {
			fmt.Fprintf(out, "  timed over the window\n")
		}
		fmt.Fprintf(out, "  job_s_p50 %.6f s (n=%d)\n", median(jt.wall), len(jt.wall))
		seen, repeats := map[string]bool{}, 0
		for _, j := range win.jobs {
			if seen[j.key] {
				repeats++
			}
			seen[j.key] = true
		}
		fmt.Fprintf(out, "  repeats: %d of %d jobs repeat an earlier job of the window\n", repeats, len(win.jobs))
		if r, ok := win.layer["evalcache.hit_ratio"]; ok {
			fmt.Fprintf(out, "  shared cache hit ratio %.4f\n", r)
		}
		if len(win.jobs) <= maxJobLines {
			for _, j := range win.jobs {
				fmt.Fprintf(out, "  job %-36s %8.4f s %6d candidates\n", j.key, j.wall.Seconds(), j.candidates)
			}
		}
		if p, val, ok := tailPercentile(jt.wall); ok {
			fmt.Fprintf(out, "  job_ms_p%g %.4f ms (n=%d)\n", p, val*1e3, len(jt.wall))
		}
		if len(cloneErr) > 0 {
			fmt.Fprintf(out, "  clone_err_pct %.4f %% (mean over %d clones)\n", 100*mean(cloneErr), len(cloneErr))
		}
		fmt.Fprintf(out, "  failed_frac %.4f\n", float64(res.Failed)/float64(res.Attempted))
	}
	res.Correct = res.Failed == 0
	printMetrics(out, res.Metrics)
	return res, nil
}

// jobTiming is what the end-to-end metrics of a window rest on: candidates
// proposed in seconds of job time with allocs heap allocations, and one wall
// time per job.
type jobTiming struct {
	candidates, seconds, allocs float64
	wall                        []float64
}

// timeJobs times a window that made allocs heap allocations. When repeats of
// a job do identical work, each distinct job counts once, with its fastest
// run: a shared host slows some runs for seconds at a time and never speeds
// one up, so the fastest run is the steadiest estimate of the job's cost,
// and counting each job once keeps the mix of jobs the same however far the
// window got. Otherwise every job counts, over the whole window.
func timeJobs(win windowResult, elapsed time.Duration, allocs uint64) jobTiming {
	if !win.repeatable {
		t := jobTiming{candidates: float64(win.candidates), seconds: elapsed.Seconds(), allocs: float64(allocs)}
		for _, j := range win.jobs {
			t.wall = append(t.wall, j.wall.Seconds())
		}
		return t
	}
	fastest := make(map[string]jobOutcome)
	var keys []string
	for _, j := range win.jobs {
		f, ok := fastest[j.key]
		if !ok {
			keys = append(keys, j.key)
		}
		if !ok || j.wall < f.wall {
			fastest[j.key] = j
		}
	}
	var t jobTiming
	for _, k := range keys {
		j := fastest[k]
		t.candidates += float64(j.candidates)
		t.seconds += j.wall.Seconds()
		t.allocs += float64(j.allocs)
		t.wall = append(t.wall, j.wall.Seconds())
	}
	return t
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// peakRSSMB is the process's peak resident set size (Linux reports ru_maxrss
// in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

func startCPUProfile(cfg config) (stop func() error, err error) {
	if !cfg.cpuProfile {
		return func() error { return nil }, nil
	}
	f, err := os.Create(filepath.Join(cfg.traceDir, "cpu.pprof"))
	if err != nil {
		return nil, fmt.Errorf("creating CPU profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

func writeHeapProfile(dir string) error {
	f, err := os.Create(filepath.Join(dir, "mem.pprof"))
	if err != nil {
		return fmt.Errorf("creating heap profile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("writing heap profile: %w", err)
	}
	return f.Close()
}

// verification is the outcome of checking a window's jobs.
type verification struct {
	jobs, pinnedOK, selfOK, failed int
	pinned                         bool
	digests                        map[string]string
	errors                         []string
}

func (v verification) summary(seed int64) string {
	if v.pinned {
		return fmt.Sprintf("%d jobs, %d matched the digests pinned for seed %d, %d without a pin passed the self-consistency check, %d failed",
			v.jobs, v.pinnedOK, seed, v.selfOK, v.failed)
	}
	return fmt.Sprintf("%d jobs; seed %d has no pinned digests, so each distinct job ran the self-consistency check: %d passed, %d failed",
		v.jobs, seed, v.selfOK, v.failed)
}

// verifyJobs checks every job: it must have succeeded, every repeat of a
// job must reproduce the first occurrence's digest, and a job's digest must
// match its pin when one exists; distinct jobs without a pin instead run
// their self-consistency check.
func verifyJobs(jobs []jobOutcome, pinned map[string]string) verification {
	v := verification{jobs: len(jobs), pinned: pinned != nil, digests: make(map[string]string)}
	checked := make(map[string]error)
	fail := func(j jobOutcome, format string, args ...any) {
		v.failed++
		if len(v.errors) < 10 {
			v.errors = append(v.errors, j.id+": "+fmt.Sprintf(format, args...))
		}
	}
	for _, j := range jobs {
		if j.err != nil {
			fail(j, "%v", j.err)
			continue
		}
		if first, ok := v.digests[j.key]; ok && first != j.digest {
			fail(j, "digest %s differs from an earlier run of the same job (%s)", j.digest, first)
			continue
		}
		v.digests[j.key] = j.digest
		if pin, ok := pinned[j.key]; ok {
			if pin != j.digest {
				fail(j, "digest %s does not match the pinned %s", j.digest, pin)
				continue
			}
			v.pinnedOK++
			continue
		}
		err, done := checked[j.key]
		if !done {
			err = j.verify()
			checked[j.key] = err
		}
		if err != nil {
			fail(j, "self-consistency: %v", err)
			continue
		}
		v.selfOK++
	}
	return v
}

// metricDef describes one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are reported by untraced runs (BENCHMARK.json end_to_end).
var endToEndMetrics = []metricDef{
	{"candidates_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"allocs_per_candidate", "count", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayerMetrics are reported by traced runs (BENCHMARK.json per_layer).
// A layer a workload never calls reports 0 (no calls, no time).
var perLayerMetrics = []metricDef{
	{"cpusim.run_us_p50", "us", "lower"},
	{"cpusim.minstr_per_s", "Minstr/s", "higher"},
	{"cpusim.new_prog_frac", "share", "lower"},
	{"cpusim.allocs_per_run", "count", "lower"},
	{"cpusim.self_share", "share", "lower"},
	{"powersim.trace_us", "us", "lower"},
	{"powersim.dynpower_us", "us", "lower"},
	{"powersim.droop_us", "us", "lower"},
	{"powersim.thermal_us", "us", "lower"},
	{"powersim.sum_traces_us", "us", "lower"},
	{"powersim.grid_droop_us", "us", "lower"},
	{"powersim.grid_thermal_us", "us", "lower"},
	{"powersim.allocs_per_eval", "count", "lower"},
	{"powersim.self_share", "share", "lower"},
	{"multicore.eval_ms_p50", "ms", "lower"},
	{"multicore.aggregate_share", "share", "lower"},
	{"microprobe.synth_miss_us", "us", "lower"},
	{"microprobe.synth_hit_ratio", "share", "higher"},
	{"microprobe.self_share", "share", "lower"},
	{"platform.eval_us_p50", "us", "lower"},
	{"platform.key_us", "us", "lower"},
	{"evalcache.hit_ratio", "share", "higher"},
	{"evalcache.lookup_us", "us", "lower"},
	{"evalcache.get_us", "us", "lower"},
	{"evalcache.put_us", "us", "lower"},
	{"tuner.epoch_ms_p50", "ms", "lower"},
	{"tuner.engine_self_share", "share", "lower"},
	{"sched.worker_busy_frac", "share", "higher"},
	{"serve.submit_ms_p50", "ms", "lower"},
	{"serve.queue_wait_ms_p50", "ms", "lower"},
	{"serve.run_ms_p50", "ms", "lower"},
	{"cloning.reference_ms", "ms", "lower"},
	{"trace.candidates_per_s", "1/s", "higher"},
	{"trace.unattributed_share", "share", "lower"},
}

// evalSpans name the spans the platform wrappers record around evaluations.
var evalSpans = []string{"platform.eval", "multicore.eval"}

// traceReport turns a traced window into the per-layer metrics: in-situ
// span statistics, the layer attribution of every traced job, and the
// replay's per-call costs. It writes the trace file and reports whether a
// check failed (layer times that do not add up to a job's wall time). A
// replay that no longer reproduces the in-situ results does not fail the
// run: its metrics report 0, as for a layer the workload never calls.
func traceReport(cfg config, rec *recorder, win windowResult, thru float64, out io.Writer) (map[string]float64, bool, error) {
	jobs := rec.tr.finish()
	st, err := replayAll(rec)
	if err != nil {
		return nil, false, err
	}
	failed := false
	for i, m := range st.mismatches {
		if i == 10 {
			fmt.Fprintf(out, "replay: ... %d more mismatches\n", len(st.mismatches)-i)
			break
		}
		fmt.Fprintf(out, "replay: FAIL %s\n", m)
	}

	// Per-layer shares are taken over the jobs whose evaluations the
	// wrappers saw: the jobs themselves, or for mgserve the standalone
	// replicas. Served jobs break down into the serve layer only.
	class := func(job string) string {
		if strings.HasPrefix(job, "serve/") {
			return "served"
		}
		return "traced"
	}
	names := make([]string, 0, len(jobs))
	for job := range jobs {
		names = append(names, job)
	}
	sort.Strings(names)
	durations := func(spanNames ...string) []float64 {
		var ds []float64
		for _, job := range names {
			for _, s := range jobs[job] {
				if slices.Contains(spanNames, s.Name) {
					ds = append(ds, float64(s.duration()))
				}
			}
		}
		return ds
	}
	layers := map[string]map[string]float64{"traced": {}, "served": {}}
	perJob := map[string]map[string]float64{}
	walls := map[string]float64{}
	inSituEvalNS := 0.0
	for _, job := range names {
		spans := jobs[job]
		var root *span
		for i := range spans {
			if spans[i].Name == "job" {
				root = &spans[i]
			}
		}
		if root == nil {
			continue // the shared mgserve cache's operations belong to no job
		}
		att := attribute(spans)
		perJob[job] = att
		sum := 0.0
		for _, ns := range att {
			sum += ns
		}
		if math.Abs(sum-float64(root.duration())) > 1e3 {
			failed = true
			fmt.Fprintf(out, "trace: FAIL %s: layer times sum to %.0f ns, job wall is %d ns\n", job, sum, root.duration())
		}
		c := class(job)
		walls[c] += float64(root.duration())
		for l, ns := range att {
			layers[c][l] += ns
		}
		for _, s := range spans {
			if c == "traced" && slices.Contains(evalSpans, s.Name) {
				inSituEvalNS += float64(s.duration())
			}
		}
	}
	wallNS := walls["traced"]
	usP50 := func(ds []float64) float64 {
		if len(ds) == 0 {
			return 0
		}
		return median(ds) / 1e3
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	// In-situ layer times split the jobs' wall time; replayed call times
	// are serial, so they are shares of the worker time the jobs had.
	share := func(ns float64) float64 { return ratio(ns, wallNS) }
	workerShare := func(ns float64) float64 { return ratio(ns, wallNS*float64(win.workers)) }
	var synthHits, synthMiss, evalHits, lookups uint64
	for _, j := range win.jobs {
		synthHits += j.synthHits
		synthMiss += j.synthMiss
		evalHits += j.evalHits
		lookups += j.candidates
	}
	m := map[string]float64{
		"multicore.eval_ms_p50":      usP50(durations("multicore.eval")) / 1e3,
		"microprobe.synth_hit_ratio": ratio(float64(synthHits), float64(synthHits+synthMiss)),
		"platform.eval_us_p50":       usP50(durations(evalSpans...)),
		"evalcache.hit_ratio":        ratio(float64(evalHits), float64(lookups)),
		"evalcache.get_us":           usP50(durations("evalcache.get")),
		"evalcache.put_us":           usP50(durations("evalcache.put")),
		"tuner.epoch_ms_p50":         usP50(durations("tuner.epoch")) / 1e3,
		"tuner.engine_self_share":    share(layers["traced"]["tuner"]),
		"sched.worker_busy_frac":     workerShare(inSituEvalNS),
		"trace.candidates_per_s":     thru,
		"trace.unattributed_share":   share(layers["traced"]["unattributed"]),
	}
	replayed := map[string]float64{
		"cpusim.run_us_p50":         st.run.medianUS(),
		"cpusim.minstr_per_s":       ratio(st.instructions/1e6, st.run.total/1e9),
		"cpusim.new_prog_frac":      ratio(float64(st.newProg), float64(st.runs)),
		"cpusim.allocs_per_run":     ratio(float64(st.cpuAllocs), float64(st.runs)),
		"cpusim.self_share":         workerShare(st.run.total),
		"powersim.trace_us":         st.trace.medianUS(),
		"powersim.dynpower_us":      st.dynPower.medianUS(),
		"powersim.droop_us":         st.droop.medianUS(),
		"powersim.thermal_us":       st.thermal.medianUS(),
		"powersim.sum_traces_us":    st.sumTraces.medianUS(),
		"powersim.grid_droop_us":    st.gridDroop.medianUS(),
		"powersim.grid_thermal_us":  st.gridThermal.medianUS(),
		"powersim.allocs_per_eval":  ratio(float64(st.powerAllocs), float64(st.powerEvals)),
		"powersim.self_share":       workerShare(st.powerNS()),
		"multicore.aggregate_share": workerShare(st.sumTraces.total + st.gridDroop.total + st.gridThermal.total + st.chipOther.total),
		"microprobe.synth_miss_us":  st.synthMiss.medianUS(),
		"microprobe.self_share":     workerShare(st.synthMiss.total + st.synthHit.total),
		"platform.key_us":           st.key.medianUS(),
		"evalcache.lookup_us":       st.lookup.medianUS(),
	}
	replayRatio := ratio(st.computeNS(), inSituEvalNS)
	fmt.Fprintf(out, "trace: replayed %d evaluations, %d mismatches; replayed compute / in-situ evaluation spans = %.3f\n",
		st.evals, len(st.mismatches), replayRatio)
	if len(st.mismatches) == 0 {
		maps.Copy(m, replayed)
	} else {
		fmt.Fprintf(out, "replay: n/a — the replay no longer reproduces the in-situ results, so the %d metrics it measures report 0\n", len(replayed))
	}
	maps.Copy(m, win.layer)
	for _, c := range []string{"traced", "served"} {
		if walls[c] == 0 {
			continue
		}
		fmt.Fprintf(out, "trace: in-situ layer times of the %s jobs (wall %.3f s)\n", c, walls[c]/1e9)
		layerNames := make([]string, 0, len(layers[c]))
		for l := range layers[c] {
			layerNames = append(layerNames, l)
		}
		sort.Strings(layerNames)
		for _, l := range layerNames {
			fmt.Fprintf(out, "  %-14s %10.3f ms %6.2f%%\n", l, layers[c][l]/1e6, 100*ratio(layers[c][l], walls[c]))
		}
	}
	tf := traceFile{Workload: cfg.workload, Seed: cfg.seed, Layers: perJob, Metrics: m, ReplayRatio: replayRatio}
	if err := writeTrace(cfg.traceDir, tf, jobs); err != nil {
		return nil, false, err
	}
	fmt.Fprintf(out, "trace: wrote %s\n", filepath.Join(cfg.traceDir, "trace.json"))
	return m, failed, nil
}
