// Command micrograd is the MicroGrad framework CLI: it runs a workload
// cloning or stress testing job described either by a JSON configuration
// file (-config) or by command-line flags, and writes the generated kernel
// and its reports to the output directory.
//
// Examples:
//
//	micrograd -use-case cloning -benchmark mcf -core large -out out/
//	micrograd -use-case stress -stress-kind power-virus -core large -epochs 30
//	micrograd -config my-run.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"micrograd/internal/config"
	"micrograd/internal/core"
	"micrograd/internal/metrics"
	"micrograd/internal/report"
	"micrograd/internal/stress"
	"micrograd/internal/tuner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "micrograd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("micrograd", flag.ContinueOnError)
	configPath := fs.String("config", "", "path to a JSON framework configuration (overrides other flags)")
	cfg := config.Default()
	fs.StringVar(&cfg.UseCase, "use-case", cfg.UseCase, "use case: cloning or stress")
	fs.StringVar(&cfg.Benchmark, "benchmark", cfg.Benchmark, "reference application to clone (astar, bzip2, gcc, hmmer, libquantum, mcf, sjeng, xalancbmk)")
	fs.BoolVar(&cfg.CloneSimpoints, "simpoints", cfg.CloneSimpoints, "clone every phase (simpoint) of the benchmark individually")
	fs.StringVar(&cfg.StressKind, "stress-kind", "perf-virus", "stress kind: "+stress.KindList(false))
	fs.StringVar(&cfg.Core, "core", cfg.Core, "core configuration: small or large (Table II)")
	fs.StringVar(&cfg.Tuner, "tuner", cfg.Tuner, "tuning mechanism: "+strings.Join(tuner.Names(), ", "))
	fs.IntVar(&cfg.MaxEpochs, "epochs", cfg.MaxEpochs, "maximum tuning epochs (0 = use-case default)")
	fs.Float64Var(&cfg.TargetAccuracy, "accuracy", cfg.TargetAccuracy, "cloning target accuracy")
	fs.IntVar(&cfg.DynamicInstructions, "instructions", cfg.DynamicInstructions, "dynamic instructions per evaluation (0 = default)")
	fs.IntVar(&cfg.LoopSize, "loop-size", cfg.LoopSize, "static kernel size (0 = ~500, else >= 2)")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	fs.IntVar(&cfg.Parallel, "parallel", runtime.GOMAXPROCS(0), "worker count of the parallel evaluation engine (1 = serial; results are identical at any count)")
	fs.StringVar(&cfg.OutputDir, "out", cfg.OutputDir, "directory to write the kernel and reports into (empty = don't write)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *configPath != "" {
		loaded, err := config.Load(*configPath)
		if err != nil {
			return err
		}
		cfg = loaded
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	fmt.Fprintf(out, "MicroGrad: %s on the %q core with tuner %q\n", cfg.UseCase, cfg.Core, cfg.Tuner)
	result, err := core.Run(context.Background(), cfg)
	if err != nil {
		return err
	}
	printOutput(out, result)

	if cfg.OutputDir != "" {
		paths, err := result.WriteArtifacts(cfg.OutputDir)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "\nartifacts written:")
		for _, p := range paths {
			fmt.Fprintln(out, "  ", p)
		}
	}
	return nil
}

// printOutput renders the run result.
func printOutput(out io.Writer, result *core.Output) {
	fmt.Fprintf(out, "\nrun %q finished: %d platform evaluations, %d epochs\n",
		result.Name, result.Evaluations, len(result.Progression))

	if len(result.CloneReports) > 0 {
		names := make([]string, 0, len(result.CloneReports))
		for n := range result.CloneReports {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			rep := result.CloneReports[n]
			t := report.NewTable(fmt.Sprintf("clone %s (mean accuracy %.1f%%, %d epochs)", rep.Name, rep.MeanAccuracy*100, rep.Epochs),
				"metric", "target", "clone", "ratio")
			for _, m := range metrics.CloningMetricNames() {
				t.AddRow(m,
					fmt.Sprintf("%.4f", rep.Target[m]),
					fmt.Sprintf("%.4f", rep.Clone[m]),
					fmt.Sprintf("%.3f", rep.Accuracy[m]))
			}
			fmt.Fprintln(out, "\n"+t.String())
		}
	}
	if result.StressReport != nil {
		rep := result.StressReport
		fmt.Fprintf(out, "\nstress test %q: best %s = %.4f after %d epochs (%d evaluations)\n",
			rep.Kind, rep.Metric, rep.BestValue, rep.Epochs, rep.Evaluations)
		fmt.Fprintln(out, report.AsciiChart("progression", 60, 12, rep.ProgressionSeries("best")))
	}
	fmt.Fprintf(out, "\nknobs: %s\n", result.Knobs.String())
	fmt.Fprintf(out, "metrics: %s\n", result.Metrics.String())
}
