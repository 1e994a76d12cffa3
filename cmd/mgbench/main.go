// Command mgbench reproduces the paper's evaluation section: every table and
// figure has an experiment that can be run individually or as a full suite.
// Experiments: tableI, tableII, fig2, fig3, fig4, fig5, fig6, tableIII,
// stresscmp, corun, dvfs, spatial, summary, all.
// -kind instead runs one of the kinds an mgserve job names, through the same
// dispatcher (experiments.RunKind): a stress test of any built-in kind
// ("spatial" and "hotspot" name the two spatial kinds), cloning (fig2 on the
// large -core, fig3 on the small one) or tunercmp, the equal-budget tuner
// comparison on the spatial stress problem, which "all" does not run.
// -trace dumps a -kind stress kind's tuned kernel's windowed power trace as
// CSV (chip traces live on a nanosecond grid, so their rows carry
// duration_ns with cycles 0); an experiment writes no trace, and cloning and
// tunercmp tune many kernels, so all three reject it.
//
// The chip kinds and experiments co-run -cores copies of -core on one
// power-delivery network: dvfs also tunes per-core clocks warm-started from
// -freqs, and the spatial ones solve a -grid RxC PDN/thermal grid with the
// cores placed by -floorplan. Stress tuning is budget-centric: -tuner picks
// the mechanism (for -kind tunercmp, a comma-separated challenger list), -budget
// caps the proposed evaluations per tuning run and -power-cap the kernels'
// dynamic power; fig5 and fig6 ignore all three.
//
// The run flags are the fields of one experiments.Request, the body of an
// mgserve job, so both front ends validate and budget a run the same way:
// -epochs bounds the cloning and the stress epochs alike, and a negative
// override, a halving tuner without -budget, or a chip kind or chip
// experiment (all runs corun, dvfs and spatial) on one core is rejected
// before anything runs.
//
//	mgbench -experiment all            # full reproduction (minutes)
//	mgbench -experiment fig5 -quick    # one figure at reduced budget
//	mgbench -experiment fig2 -csv out/ # also dump CSV data for plotting
//	mgbench -kind voltage-noise-virus -quick -core small -trace trace.csv
//	mgbench -experiment dvfs -quick -core small -freqs 2.0,1.2
//	mgbench -kind spatial -quick -core small -cores 4 -grid 2x2 -floorplan "0,0;0,0;1,1;1,1"
//	mgbench -kind power-virus -quick -core small -tuner cmaes -budget 200 -power-cap 30
//	mgbench -kind tunercmp -quick -core small -cores 4 -grid 2x2 -tuner cmaes,halving-cmaes
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"micrograd/internal/experiments"
	"micrograd/internal/metrics"
	"micrograd/internal/report"
	"micrograd/internal/stress"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mgbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	req, opt, err := parseArgs(args)
	if err != nil {
		return err
	}
	budget := req.RunBudget()
	budget.MemoCap = opt.memoCap
	runner := &suite{out: out, csvDir: opt.csvDir, budget: budget, req: req.Normalized()}
	ctx := context.Background()
	if req.Kind != "" {
		return runner.runKind(ctx, opt.tracePath)
	}
	return runner.run(ctx, opt.experiment)
}

// options holds the flags that are not part of the run request.
type options struct {
	experiment, csvDir, tracePath string
	memoCap                       int
}

// parseArgs binds the flags to a validated request and the options around
// it. Only flag syntax lives here: case-insensitive names, the RxC grid
// and the comma-separated lists.
func parseArgs(args []string) (experiments.Request, options, error) {
	fs := flag.NewFlagSet("mgbench", flag.ContinueOnError)
	var (
		req experiments.Request
		opt options
	)
	fs.StringVar(&opt.experiment, "experiment", "all", "experiment to run: tableI, tableII, fig2, fig3, fig4, fig5, fig6, tableIII, stresscmp, corun, dvfs, spatial, summary, all")
	fs.StringVar(&opt.csvDir, "csv", "", "directory to write CSV data files into (empty = don't write)")
	fs.StringVar(&opt.tracePath, "trace", "", "file to write the -kind stress kernel's windowed power trace into (CSV; empty = don't write; needs -kind, and not cloning or tunercmp)")
	fs.IntVar(&opt.memoCap, "memo-cap", 0, "bound each run's evaluation cache to this many entries with LRU eviction (0 = unbounded)")
	fs.BoolVar(&req.Quick, "quick", false, "use the reduced quick budget (3 benchmarks, short simulations)")
	fs.IntVar(&req.Instructions, "instructions", 0, "override dynamic instructions per evaluation")
	fs.IntVar(&req.Epochs, "epochs", 0, "override the cloning and stress epoch bounds")
	fs.Int64Var(&req.Seed, "seed", 0, "override random seed")
	fs.IntVar(&req.Parallel, "parallel", runtime.GOMAXPROCS(0), "worker count of the parallel evaluation engine (1 = serial; results are identical at any count)")
	fs.StringVar(&req.Kind, "kind", "", "run one kind instead of an experiment, as an mgserve job does: a stress test ("+stress.KindList(true)+"), cloning (fig2 on the large core, fig3 on the small) or tunercmp")
	fs.StringVar(&req.Core, "core", "", "core the -kind run and the corun/dvfs/spatial experiments run on: small or large (empty = large)")
	fs.IntVar(&req.Cores, "cores", 0, "number of co-running cores of the corun/dvfs/spatial experiments and the chip and tunercmp kinds (0 = the -freqs count, else 2)")
	fs.StringVar(&req.Floorplan, "floorplan", "", "core placement on the -grid, one row,col pair per core (e.g. \"0,0;0,1;1,0;1,1\"; empty = round-robin)")
	fs.IntVar(&req.Budget, "budget", 0, "proposed-evaluation budget per stress tuning run of -kind and the stresscmp, corun, dvfs and spatial experiments, and -kind tunercmp's shared budget (0 = bounded by epochs only; fig5/fig6 ignore it)")
	fs.Float64Var(&req.PowerCapW, "power-cap", 0, "dynamic power cap in watts for the stress tuning of -kind and the stresscmp, corun, dvfs and spatial experiments (0 = uncapped; fig5/fig6 ignore it)")
	var (
		benchList = fs.String("benchmarks", "", "comma-separated benchmark subset (default: all eight)")
		freqList  = fs.String("freqs", "", "comma-separated per-core warm-start clocks in GHz for the dvfs experiment and the dvfs-noise-virus kind (e.g. 2.0,1.2; sets the core count, empty = start from the knob-space midpoint)")
		gridDims  = fs.String("grid", "", "spatial PDN/thermal grid dimensions RxC for the spatial experiment and the spatial and tunercmp kinds (e.g. 2x2; empty = near-square grid sized to -cores)")
		tunerName = fs.String("tuner", "", "stress-tuning mechanism of -kind and the stresscmp, corun, dvfs and spatial experiments: gd, ga, annealing, random, bruteforce, cmaes, halving-gd, halving-cmaes (empty = gd; fig5/fig6 always run gd and ga); for -kind tunercmp, a comma-separated challenger list")
	)
	if err := fs.Parse(args); err != nil {
		return req, opt, err
	}
	// Names are case-insensitive: "Voltage-Noise-Virus" or "SMALL" work
	// the same as their lower-case spellings.
	req.Kind, req.Core, opt.experiment = strings.ToLower(req.Kind), strings.ToLower(req.Core), strings.ToLower(opt.experiment)
	req.Benchmarks = splitList(*benchList)
	switch tuners := splitList(strings.ToLower(*tunerName)); {
	case req.Kind == "tunercmp":
		req.Tuners = tuners
	case len(tuners) > 1:
		return req, opt, fmt.Errorf("a comma-separated -tuner list is only valid with -kind tunercmp")
	case len(tuners) == 1:
		req.Tuner = tuners[0]
	}
	var err error
	if req.FreqsGHz, err = parseFreqs(*freqList); err != nil {
		return req, opt, err
	}
	if req.Rows, req.Cols, err = parseGrid(*gridDims); err != nil {
		return req, opt, err
	}
	switch {
	case opt.tracePath != "" && req.Kind == "":
		return req, opt, fmt.Errorf("-trace needs -kind: an experiment writes no power trace")
	case opt.tracePath != "" && (req.Kind == "cloning" || req.Kind == "tunercmp"):
		return req, opt, fmt.Errorf("-trace needs one tuned kernel, and -kind %s tunes many", req.Kind)
	}
	if err := req.Validate(); err != nil || req.Kind != "" {
		return req, opt, err
	}
	// A chip experiment runs chip kinds, which all validate alike, so the
	// request must hold for one before -experiment all prints its first table.
	switch opt.experiment {
	case "all", "corun", "dvfs", "spatial":
		r := req
		r.Kind = string(stress.CoRunNoiseVirus)
		if err := r.Validate(); err != nil {
			return req, opt, fmt.Errorf("-experiment %s: %w", opt.experiment, err)
		}
	}
	return req, opt, nil
}

// splitList splits a comma-separated flag value into its trimmed entries
// (nil for an empty value).
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i, p := range parts {
		parts[i] = strings.TrimSpace(p)
	}
	return parts
}

// parseGrid parses the -grid dimensions ("2x2"). An empty value leaves
// both at zero, which the request turns into its default grid.
func parseGrid(s string) (rows, cols int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	parts := strings.SplitN(strings.ToLower(s), "x", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -grid %q: want RxC, e.g. 2x2", s)
	}
	rows, err = strconv.Atoi(strings.TrimSpace(parts[0]))
	if err == nil {
		cols, err = strconv.Atoi(strings.TrimSpace(parts[1]))
	}
	if err != nil || rows < 1 || cols < 1 {
		return 0, 0, fmt.Errorf("bad -grid %q: want RxC with positive dimensions, e.g. 2x2", s)
	}
	return rows, cols, nil
}

// parseFreqs parses the -freqs list ("2.0,1.2") into per-core GHz values;
// the request's Validate checks that each is a usable clock.
func parseFreqs(list string) ([]float64, error) {
	parts := splitList(list)
	if parts == nil {
		return nil, nil
	}
	freqs := make([]float64, len(parts))
	for i, p := range parts {
		f, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -freqs entry %q: %w", p, err)
		}
		freqs[i] = f
	}
	return freqs, nil
}

// runKind runs the request's kind and optionally dumps the tuned kernel's
// power trace (for the chip kinds: the summed chip trace) and, with -csv,
// the run's progression series.
func (s *suite) runKind(ctx context.Context, tracePath string) error {
	start := time.Now()
	res, err := experiments.RunKind(ctx, s.req, s.budget)
	if err != nil {
		return err
	}
	fmt.Fprintln(s.out, res.Output)
	fmt.Fprintf(s.out, "[%s completed in %s]\n", res.Kind, time.Since(start).Round(time.Millisecond))
	if err := s.writeSeriesCSV(res.Kind, res.Series()); err != nil {
		return err
	}
	if tracePath == "" {
		return nil
	}
	if err := writeCSVFile(tracePath, res.Trace.WriteCSV); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "power trace (%d windows) written to %s\n", len(res.Trace.Points), tracePath)
	return nil
}

// suite executes experiments and holds shared state (Fig. 2 results feed the
// Fig. 4 epoch budget, Fig. 6 feeds Table III).
type suite struct {
	out    io.Writer
	csvDir string
	budget experiments.Budget
	// req is the normalized request: the placement of the corun, dvfs and
	// spatial experiments and the -kind run.
	req experiments.Request

	fig2 *experiments.CloningResult
	fig4 *experiments.CloningResult
	fig5 *experiments.StressResult
	fig6 *experiments.StressResult
}

func (s *suite) run(ctx context.Context, which string) error {
	order := []string{which}
	if which == "all" {
		order = []string{"tablei", "tableii", "fig2", "fig3", "fig4", "fig5", "fig6", "tableiii", "stresscmp", "corun", "dvfs", "spatial", "summary"}
	}
	for _, exp := range order {
		start := time.Now()
		if err := s.runOne(ctx, exp); err != nil {
			return fmt.Errorf("%s: %w", exp, err)
		}
		fmt.Fprintf(s.out, "[%s completed in %s]\n\n", exp, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func (s *suite) runOne(ctx context.Context, which string) error {
	switch which {
	case "tablei":
		fmt.Fprintln(s.out, experiments.TableI().Render())
	case "tableii":
		fmt.Fprintln(s.out, experiments.TableII().Render())
	case "fig2":
		res, err := experiments.RunFig2(ctx, s.budget)
		s.fig2 = &res
		return s.showCloning(res, err)
	case "fig3":
		res, err := experiments.RunFig3(ctx, s.budget)
		return s.showCloning(res, err)
	case "fig4":
		var gdEpochs map[string]int
		if s.fig2 != nil {
			gdEpochs = s.fig2.EpochsPerBenchmark()
		}
		res, err := experiments.RunFig4(ctx, s.budget, gdEpochs)
		s.fig4 = &res
		return s.showCloning(res, err)
	case "fig5":
		res, err := experiments.RunFig5(ctx, s.budget)
		s.fig5 = &res
		return s.show(which, res, err)
	case "fig6":
		res, err := experiments.RunFig6(ctx, s.budget)
		s.fig6 = &res
		return s.show(which, res, err)
	case "tableiii":
		fig6, err := once(&s.fig6, func() (experiments.StressResult, error) { return experiments.RunFig6(ctx, s.budget) })
		if err != nil {
			return err
		}
		fmt.Fprintln(s.out, experiments.TableIIIFrom(fig6.GD).Render())
	case "stresscmp":
		res, err := experiments.RunStressCompare(ctx, s.budget)
		if err != nil {
			return err
		}
		fmt.Fprintln(s.out, res.Render())
	case "corun":
		res, err := experiments.RunCoRun(ctx, s.req.Core, s.req.Cores, s.budget)
		return s.show(which, res, err)
	case "dvfs":
		res, err := experiments.RunDVFS(ctx, s.req.Core, s.req.Cores, s.req.FreqsGHz, s.budget)
		return s.show(which, res, err)
	case "spatial":
		res, err := experiments.RunSpatial(ctx, s.req.Core, s.req.Cores, s.req.Rows, s.req.Cols, s.req.Floorplan, s.budget)
		return s.show(which, res, err)
	case "summary":
		return s.summary(ctx)
	default:
		return fmt.Errorf("unknown experiment %q", which)
	}
	return nil
}

// show prints an experiment's table and, with -csv, dumps its series into
// <name>.csv. An error stops the run, so a figure stored with it is unread.
func (s *suite) show(name string, res interface {
	Render() string
	Series() []report.Series
}, err error) error {
	if err != nil {
		return err
	}
	fmt.Fprintln(s.out, res.Render())
	return s.writeSeriesCSV(name, res.Series())
}

// once returns *slot, running run to fill it first when it is still nil:
// tableIII and the summary reuse the figures the run list already ran.
func once[T any](slot **T, run func() (T, error)) (*T, error) {
	if *slot == nil {
		res, err := run()
		if err != nil {
			return nil, err
		}
		*slot = &res
	}
	return *slot, nil
}

// summary prints the paper-vs-reproduction summary of Figs. 2 and 4-6.
func (s *suite) summary(ctx context.Context) error {
	fig2, err := once(&s.fig2, func() (experiments.CloningResult, error) { return experiments.RunFig2(ctx, s.budget) })
	if err != nil {
		return err
	}
	fig4, err := once(&s.fig4, func() (experiments.CloningResult, error) {
		return experiments.RunFig4(ctx, s.budget, fig2.EpochsPerBenchmark())
	})
	if err != nil {
		return err
	}
	fig5, err := once(&s.fig5, func() (experiments.StressResult, error) { return experiments.RunFig5(ctx, s.budget) })
	if err != nil {
		return err
	}
	fig6, err := once(&s.fig6, func() (experiments.StressResult, error) { return experiments.RunFig6(ctx, s.budget) })
	if err != nil {
		return err
	}
	fmt.Fprintln(s.out, experiments.Summary(*fig2, *fig4, *fig5, *fig6).Render())
	return nil
}

// showCloning prints a cloning experiment's table and, with -csv, dumps
// its radar data.
func (s *suite) showCloning(res experiments.CloningResult, err error) error {
	if err != nil {
		return err
	}
	fmt.Fprintln(s.out, res.Render())
	if s.csvDir == "" {
		return nil
	}
	t := report.RadarTable(res.Figure, metrics.CloningMetricNames(), res.AccuracyRatios(), res.EpochsPerBenchmark())
	return writeCSVFile(filepath.Join(s.csvDir, res.Figure+".csv"), t.WriteCSV)
}

// writeSeriesCSV dumps a run's progression series into <name>.csv in the
// -csv directory.
func (s *suite) writeSeriesCSV(name string, series []report.Series) error {
	if s.csvDir == "" {
		return nil
	}
	return writeCSVFile(filepath.Join(s.csvDir, name+".csv"), func(w io.Writer) error {
		return report.SeriesCSV(w, series...)
	})
}

func writeCSVFile(path string, fill func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fill(f)
}
