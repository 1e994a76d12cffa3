// Command mgbench reproduces the paper's evaluation section: every table and
// figure has an experiment that can be run individually or as a full suite.
//
//	mgbench -experiment all            # full reproduction (minutes)
//	mgbench -experiment fig5 -quick    # one figure at reduced budget
//	mgbench -experiment fig2 -csv out/ # also dump CSV data for plotting
//
// Experiments: tableI, tableII, fig2, fig3, fig4, fig5, fig6, tableIII,
// stresscmp, corun, dvfs, spatial, summary, all — plus tunercmp, which is not
// part of "all" (it re-runs the spatial stress problem once per tuner).
//
// Alternatively -kind runs a single stress test of any built-in kind
// (perf-virus, power-virus, voltage-noise-virus, thermal-virus,
// corun-noise-virus, dvfs-noise-virus, spatial-noise-virus,
// hotspot-migration-virus — the last two also answer to "spatial" and
// "hotspot") on the core selected with -core, and -trace dumps the tuned
// kernel's windowed power trace as CSV
// (window,cycles,time_ns,duration_ns,energy_pj,power_w; chip-level traces
// live on a nanosecond grid, so their rows carry duration_ns with cycles 0). The corun
// kind and experiment co-run -cores copies of the core on a shared
// power-delivery network and tune the chip-level droop; the dvfs kind and
// experiment additionally tune per-core clocks, warm-started from -freqs,
// and compare against the homogeneous fixed-clock baseline. The spatial
// kinds and experiment evaluate the chip on a -grid RxC spatial PDN/thermal
// grid with cores placed by -floorplan ("row,col" per core; default
// round-robin), emit per-node droop/temperature metrics, and the spatial
// experiment compares against the spatially-oblivious co-run virus
// re-scored on the same grid:
//
// Stress tuning is budget-centric: -tuner picks the search mechanism (gd,
// ga, annealing, random, bruteforce, cmaes, halving-gd, halving-cmaes),
// -budget caps the proposed evaluations per tuning run, and -power-cap
// constrains the search to kernels under a dynamic power cap. These three
// apply to -kind
// and to the stresscmp, corun, dvfs, spatial and tunercmp experiments; fig5
// and fig6 ignore them, because they compare fixed GD and GA runs with the
// uncapped brute-force reference. The tunercmp experiment
// pits a comma-separated -tuner challenger list against the gradient-descent
// baseline at an equal budget on the spatial-grid chip problem:
//
//	mgbench -kind voltage-noise-virus -quick -core small -trace trace.csv
//	mgbench -kind corun-noise-virus -quick -core small -cores 2
//	mgbench -experiment dvfs -quick -core small -freqs 2.0,1.2
//	mgbench -kind spatial -quick -core small -cores 4 -grid 2x2
//	mgbench -experiment spatial -quick -core small -cores 4 -grid 2x2 -floorplan "0,0;0,0;1,1;1,1"
//	mgbench -kind power-virus -quick -core small -tuner cmaes -budget 200 -power-cap 30
//	mgbench -experiment tunercmp -quick -core small -cores 4 -grid 2x2 -tuner cmaes,halving-cmaes
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"micrograd/internal/experiments"
	"micrograd/internal/metrics"
	"micrograd/internal/multicore"
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
	fs := flag.NewFlagSet("mgbench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "experiment to run: tableI, tableII, fig2, fig3, fig4, fig5, fig6, tableIII, stresscmp, corun, dvfs, spatial, tunercmp, summary, all")
		quick      = fs.Bool("quick", false, "use the reduced quick budget (3 benchmarks, short simulations)")
		csvDir     = fs.String("csv", "", "directory to write CSV data files into (empty = don't write)")
		dynInstr   = fs.Int("instructions", 0, "override dynamic instructions per evaluation")
		epochs     = fs.Int("epochs", 0, "override cloning epochs")
		seed       = fs.Int64("seed", 0, "override random seed")
		benchList  = fs.String("benchmarks", "", "comma-separated benchmark subset (default: all eight)")
		parallel   = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker count of the parallel evaluation engine (1 = serial; results are identical at any count)")
		kind       = fs.String("kind", "", "run a single stress test of this kind instead of an experiment: perf-virus, power-virus, voltage-noise-virus, thermal-virus, corun-noise-virus, dvfs-noise-virus, spatial-noise-virus (alias: spatial), hotspot-migration-virus (alias: hotspot)")
		coreName   = fs.String("core", "large", "core the -kind stress test and the corun/dvfs/spatial experiments run on: small or large")
		cores      = fs.Int("cores", 2, "number of co-running cores of the corun/dvfs/spatial experiments and kinds")
		freqList   = fs.String("freqs", "", "comma-separated per-core warm-start clocks in GHz for the dvfs experiment and the dvfs-noise-virus kind (e.g. 2.0,1.2; sets the core count, empty = start from the knob-space midpoint)")
		gridDims   = fs.String("grid", "", "spatial PDN/thermal grid dimensions RxC for the spatial experiment and kinds (e.g. 2x2; empty = near-square grid sized to -cores)")
		floorplan  = fs.String("floorplan", "", "core placement on the -grid, one row,col pair per core (e.g. \"0,0;0,1;1,0;1,1\"; empty = round-robin)")
		tracePath  = fs.String("trace", "", "file to write the -kind kernel's windowed power trace into (CSV; empty = don't write)")
		tunerName  = fs.String("tuner", "", "stress-tuning mechanism of -kind and the stresscmp, corun, dvfs and spatial experiments: gd, ga, annealing, random, bruteforce, cmaes, halving-gd, halving-cmaes (empty = gd; fig5/fig6 always run gd and ga); for -experiment tunercmp, a comma-separated challenger list")
		maxEvals   = fs.Int("budget", 0, "proposed-evaluation budget per stress tuning run of -kind and the stresscmp, corun, dvfs and spatial experiments, and tunercmp's shared budget (0 = bounded by epochs only; fig5/fig6 ignore it)")
		powerCap   = fs.Float64("power-cap", 0, "dynamic power cap in watts for the stress tuning of -kind and the stresscmp, corun, dvfs, spatial and tunercmp experiments (0 = uncapped; fig5/fig6 ignore it)")
		memoCap    = fs.Int("memo-cap", 0, "bound each run's evaluation cache to this many entries with LRU eviction (0 = unbounded)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	budget := experiments.FullBudget()
	if *quick {
		budget = experiments.QuickBudget()
	}
	if *dynInstr > 0 {
		budget.DynamicInstructions = *dynInstr
	}
	if *epochs > 0 {
		budget.CloneEpochs = *epochs
	}
	if *seed != 0 {
		budget.Seed = *seed
	}
	if *benchList != "" {
		budget.Benchmarks = strings.Split(*benchList, ",")
	}
	if *parallel > 0 {
		budget.Parallel = *parallel
	}
	if *maxEvals > 0 {
		budget.MaxEvaluations = *maxEvals
	}
	if *powerCap > 0 {
		budget.PowerCapW = *powerCap
	}
	if *memoCap > 0 {
		budget.MemoCap = *memoCap
	}
	var challengers []string
	if *tunerName != "" {
		for _, name := range strings.Split(*tunerName, ",") {
			challengers = append(challengers, strings.ToLower(strings.TrimSpace(name)))
		}
		if len(challengers) == 1 {
			budget.Tuner = challengers[0]
		} else if strings.ToLower(*experiment) != "tunercmp" {
			return fmt.Errorf("a comma-separated -tuner list is only valid with -experiment tunercmp")
		}
	}

	freqs, err := parseFreqs(*freqList)
	if err != nil {
		return err
	}
	if freqs != nil {
		*cores = len(freqs)
	}

	rows, cols, err := parseGrid(*gridDims, *cores)
	if err != nil {
		return err
	}
	var fp *multicore.Floorplan
	if *floorplan != "" {
		plan, err := multicore.ParseFloorplan(*floorplan, rows, cols)
		if err != nil {
			return fmt.Errorf("bad -floorplan: %w", err)
		}
		fp = &plan
	}

	ctx := context.Background()
	runner := &suite{out: out, csvDir: *csvDir, budget: budget, core: strings.ToLower(*coreName),
		cores: *cores, freqs: freqs, rows: rows, cols: cols, fp: fp, tuners: challengers}
	// -kind and -core are normalized like -experiment, so "Voltage-Noise-Virus"
	// or "SMALL" work the same as their lower-case spellings.
	if *kind != "" {
		return runner.runKind(ctx, strings.ToLower(*kind), *tracePath)
	}
	return runner.run(ctx, strings.ToLower(*experiment))
}

// parseGrid parses the -grid dimensions ("2x2"). An empty value picks
// multicore.DefaultGrid for the core count, so the spatial kinds work
// without an explicit -grid.
func parseGrid(s string, cores int) (rows, cols int, err error) {
	if s == "" {
		rows, cols = multicore.DefaultGrid(cores)
		return rows, cols, nil
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

// parseFreqs parses the -freqs list ("2.0,1.2") into per-core GHz values.
func parseFreqs(list string) ([]float64, error) {
	if list == "" {
		return nil, nil
	}
	parts := strings.Split(list, ",")
	freqs := make([]float64, len(parts))
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -freqs entry %q: %w", p, err)
		}
		if !(f > 0) || math.IsInf(f, 0) { // !(f>0) also catches NaN
			return nil, fmt.Errorf("-freqs entry %q must be a positive finite clock in GHz", p)
		}
		freqs[i] = f
	}
	return freqs, nil
}

// runKind runs one stress test of the given kind and optionally dumps the
// tuned kernel's power trace (for the co-run kind: the summed chip trace)
// and, with -csv, the tuning progression series.
func (s *suite) runKind(ctx context.Context, kindName, tracePath string) error {
	kind, err := stress.KindByName(kindName)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := experiments.RunKind(ctx, experiments.KindRequest{Kind: kind, Core: s.core, Cores: s.cores,
		FreqsGHz: s.freqs, Rows: s.rows, Cols: s.cols, Floorplan: s.fp}, s.budget)
	if err != nil {
		return err
	}
	fmt.Fprintln(s.out, res.Output)
	fmt.Fprintf(s.out, "[%s completed in %s]\n", kind, time.Since(start).Round(time.Millisecond))
	if err := s.writeKindCSV(kind, res.Report); err != nil {
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

// writeKindCSV dumps a -kind run's progression series into the -csv
// directory, mirroring what the figure experiments do.
func (s *suite) writeKindCSV(kind stress.Kind, rep stress.Report) error {
	if s.csvDir == "" {
		return nil
	}
	return writeCSVFile(filepath.Join(s.csvDir, string(kind)+".csv"), func(w io.Writer) error {
		return report.SeriesCSV(w, rep.ProgressionSeries(string(kind)))
	})
}

// suite executes experiments and holds shared state (Fig. 2 results feed the
// Fig. 4 epoch budget, Fig. 6 feeds Table III).
type suite struct {
	out    io.Writer
	csvDir string
	budget experiments.Budget
	core   string
	cores  int
	freqs  []float64
	// rows/cols/fp describe the spatial grid of the spatial experiment and
	// kinds (fp nil = round-robin default floorplan).
	rows, cols int
	fp         *multicore.Floorplan
	// tuners is the tunercmp challenger list from -tuner (nil = defaults).
	tuners []string

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
		if err != nil {
			return err
		}
		s.fig2 = &res
		fmt.Fprintln(s.out, res.Render())
		return s.writeCloningCSV(res)
	case "fig3":
		res, err := experiments.RunFig3(ctx, s.budget)
		if err != nil {
			return err
		}
		fmt.Fprintln(s.out, res.Render())
		return s.writeCloningCSV(res)
	case "fig4":
		var gdEpochs map[string]int
		if s.fig2 != nil {
			gdEpochs = s.fig2.EpochsPerBenchmark()
		}
		res, err := experiments.RunFig4(ctx, s.budget, gdEpochs)
		if err != nil {
			return err
		}
		s.fig4 = &res
		fmt.Fprintln(s.out, res.Render())
		return s.writeCloningCSV(res)
	case "fig5":
		res, err := experiments.RunFig5(ctx, s.budget)
		if err != nil {
			return err
		}
		s.fig5 = &res
		fmt.Fprintln(s.out, res.Render())
		return s.writeStressCSV(res)
	case "fig6":
		res, err := experiments.RunFig6(ctx, s.budget)
		if err != nil {
			return err
		}
		s.fig6 = &res
		fmt.Fprintln(s.out, res.Render())
		return s.writeStressCSV(res)
	case "tableiii":
		if s.fig6 == nil {
			res, err := experiments.RunFig6(ctx, s.budget)
			if err != nil {
				return err
			}
			s.fig6 = &res
		}
		fmt.Fprintln(s.out, experiments.TableIIIFrom(s.fig6.GD).Render())
	case "stresscmp":
		res, err := experiments.RunStressCompare(ctx, s.budget)
		if err != nil {
			return err
		}
		fmt.Fprintln(s.out, res.Render())
	case "corun":
		res, err := experiments.RunCoRun(ctx, s.core, s.cores, s.budget)
		if err != nil {
			return err
		}
		fmt.Fprintln(s.out, res.Render())
		if s.csvDir != "" {
			return writeCSVFile(filepath.Join(s.csvDir, "corun.csv"), func(w io.Writer) error {
				return report.SeriesCSV(w, res.Series()...)
			})
		}
	case "dvfs":
		res, err := experiments.RunDVFS(ctx, s.core, s.cores, s.freqs, s.budget)
		if err != nil {
			return err
		}
		fmt.Fprintln(s.out, res.Render())
		if s.csvDir != "" {
			return writeCSVFile(filepath.Join(s.csvDir, "dvfs.csv"), func(w io.Writer) error {
				return report.SeriesCSV(w, res.Series()...)
			})
		}
	case "spatial":
		res, err := experiments.RunSpatial(ctx, s.core, s.cores, s.rows, s.cols, s.fp, s.budget)
		if err != nil {
			return err
		}
		fmt.Fprintln(s.out, res.Render())
		if s.csvDir != "" {
			return writeCSVFile(filepath.Join(s.csvDir, "spatial.csv"), func(w io.Writer) error {
				return report.SeriesCSV(w, res.Series()...)
			})
		}
	case "tunercmp":
		res, err := experiments.RunTunerCmp(ctx, s.core, s.cores, s.rows, s.cols, s.tuners, s.budget)
		if err != nil {
			return err
		}
		fmt.Fprintln(s.out, res.Render())
		if s.csvDir != "" {
			return writeCSVFile(filepath.Join(s.csvDir, "tunercmp.csv"), func(w io.Writer) error {
				return report.SeriesCSV(w, res.Series()...)
			})
		}
	case "summary":
		if err := s.ensureSummaryInputs(ctx); err != nil {
			return err
		}
		sum := experiments.Summary(*s.fig2, *s.fig4, *s.fig5, *s.fig6)
		fmt.Fprintln(s.out, sum.Render())
	default:
		return fmt.Errorf("unknown experiment %q", which)
	}
	return nil
}

// ensureSummaryInputs runs any experiment the summary still needs.
func (s *suite) ensureSummaryInputs(ctx context.Context) error {
	var err error
	if s.fig2 == nil {
		var res experiments.CloningResult
		if res, err = experiments.RunFig2(ctx, s.budget); err != nil {
			return err
		}
		s.fig2 = &res
	}
	if s.fig4 == nil {
		var res experiments.CloningResult
		if res, err = experiments.RunFig4(ctx, s.budget, s.fig2.EpochsPerBenchmark()); err != nil {
			return err
		}
		s.fig4 = &res
	}
	if s.fig5 == nil {
		var res experiments.StressResult
		if res, err = experiments.RunFig5(ctx, s.budget); err != nil {
			return err
		}
		s.fig5 = &res
	}
	if s.fig6 == nil {
		var res experiments.StressResult
		if res, err = experiments.RunFig6(ctx, s.budget); err != nil {
			return err
		}
		s.fig6 = &res
	}
	return nil
}

// writeCloningCSV dumps a cloning experiment's radar data.
func (s *suite) writeCloningCSV(res experiments.CloningResult) error {
	if s.csvDir == "" {
		return nil
	}
	t := report.RadarTable(res.Figure, metrics.CloningMetricNames(), res.AccuracyRatios(), res.EpochsPerBenchmark())
	return writeCSVFile(filepath.Join(s.csvDir, res.Figure+".csv"), t.WriteCSV)
}

// writeStressCSV dumps a stress experiment's progression series.
func (s *suite) writeStressCSV(res experiments.StressResult) error {
	if s.csvDir == "" {
		return nil
	}
	return writeCSVFile(filepath.Join(s.csvDir, res.Figure+".csv"), func(w io.Writer) error {
		return report.SeriesCSV(w, res.Series()...)
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
