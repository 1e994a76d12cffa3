package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// A run file is one benchmark run's standard output: the "benchmark:"
// header line names the workload and seed, the last line is the result.

// runFile is one parsed run.
type runFile struct {
	workload string
	seed     int64
	trace    bool
	header   map[string]string
	res      result
}

// parseRun reads one run's output.
func parseRun(path string) (runFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return runFile{}, err
	}
	defer f.Close()
	r := runFile{header: map[string]string{}}
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "benchmark: "); ok {
			for _, kv := range strings.Fields(rest) {
				if k, v, ok := strings.Cut(kv, "="); ok {
					r.header[k] = v
				}
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return runFile{}, fmt.Errorf("reading %s: %w", path, err)
	}
	r.workload = r.header["workload"]
	if r.workload == "" {
		return runFile{}, fmt.Errorf("%s: no benchmark header line", path)
	}
	if r.seed, err = strconv.ParseInt(r.header["seed"], 10, 64); err != nil {
		return runFile{}, fmt.Errorf("%s: bad seed: %w", path, err)
	}
	r.trace = r.header["trace"] == "true"
	if err := json.Unmarshal([]byte(last), &r.res); err != nil {
		return runFile{}, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return r, nil
}

// loadRuns parses every regular file in dir as a run.
func loadRuns(dir string) ([]runFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []runFile
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		r, err := parseRun(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// benchSpec is the part of BENCHMARK.json compare and summarize read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	blob, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(blob, &s); err != nil {
		return s, fmt.Errorf("decoding %s: %w", path, err)
	}
	return s, nil
}

// Verdicts of a paired comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// minPairs is the fewest paired runs a verdict may rest on.
const minPairs = 10

// judge compares paired runs of one metric (parent[i] and change[i] ran on
// the same seed, one right after the other). A gain needs the change to win
// at least nine tenths of the pairs, ties counting for neither side, and a
// median gap larger than the parent's interquartile range. A median worse
// than the parent's by more than bound (a share of the parent's median) is
// a regression. Otherwise the metric is unchanged — unless the run-to-run
// spread exceeds the bound, which leaves it unresolved, except when every
// change run reads better than every parent run.
//
// The run-to-run spread of a paired comparison is that of the pairs'
// change/parent ratios. The two runs of a pair share their seed and, run
// back to back, nearly the same host; a side's own spread also holds the
// differences between seeds and the host's drift over the whole set, which
// both sides share and the ratios cancel.
func judge(parent, change []float64, higherBetter bool, bound float64) (string, int) {
	n := len(parent)
	if n < minPairs || len(change) != n {
		return unresolved, 0
	}
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	wins := 0
	ratios := make([]float64, n)
	for i := range parent {
		if better(change[i], parent[i]) {
			wins++
		}
		ratios[i] = change[i] / parent[i]
	}
	medP, medC := median(parent), median(change)
	gain := medC - medP
	if !higherBetter {
		gain = -gain
	}
	q1, q3 := quartiles(parent)
	switch {
	case 10*wins >= 9*n && gain > q3-q1:
		return improved, wins
	case -gain > bound*math.Abs(medP):
		return worse, wins
	case spread(ratios) > bound:
		if allBetter(parent, change, better) {
			return unchanged, wins
		}
		return unresolved, wins
	}
	return unchanged, wins
}

// allBetter reports whether every change run beats every parent run.
func allBetter(parent, change []float64, better func(a, b float64) bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				return false
			}
		}
	}
	return true
}

// pairRuns matches untraced runs of one workload in a and b by seed.
func pairRuns(a, b []runFile, workload string) (pa, pb []runFile) {
	bySeed := make(map[int64]runFile)
	for _, r := range b {
		if r.workload == workload && !r.trace {
			bySeed[r.seed] = r
		}
	}
	for _, r := range a {
		if r.workload != workload || r.trace {
			continue
		}
		if m, ok := bySeed[r.seed]; ok {
			pa, pb = append(pa, r), append(pb, m)
		}
	}
	return pa, pb
}

// values extracts one metric from runs.
func values(runs []runFile, name string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.res.Metrics[name].Value)
	}
	return out
}

// runCompare implements `benchmark compare <parent-dir> <change-dir>`:
// one row per workload × end-to-end metric with its verdict.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare [-spec BENCHMARK.json] <parent-runs-dir> <change-runs-dir>")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	parent, err := loadRuns(fs.Arg(0))
	if err == nil {
		var change []runFile
		if change, err = loadRuns(fs.Arg(1)); err == nil {
			err = compareRuns(stdout, spec, parent, change)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	return 0
}

func compareRuns(out io.Writer, spec benchSpec, parent, change []runFile) error {
	fmt.Fprintf(out, "%-20s %-24s %5s %14s %22s %14s %22s %6s %s\n",
		"workload", "metric", "pairs", "parent", "parent q1..q3", "change", "change q1..q3", "wins", "verdict")
	rows := 0
	for _, w := range spec.Workloads {
		pa, pb := pairRuns(parent, change, w.Name)
		if len(pa) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			p, c := values(pa, m.Name), values(pb, m.Name)
			verdict, wins := judge(p, c, m.Better == "higher", m.Bound)
			pq1, pq3 := quartiles(p)
			cq1, cq3 := quartiles(c)
			fmt.Fprintf(out, "%-20s %-24s %5d %14.6g %10.6g..%-10.6g %14.6g %10.6g..%-10.6g %3d/%-2d %s\n",
				w.Name, m.Name, len(p), median(p), pq1, pq3, median(c), cq1, cq3, wins, len(p), verdict)
			rows++
		}
	}
	if rows == 0 {
		return fmt.Errorf("no workload has untraced runs on the same seed in both directories")
	}
	return nil
}

// baseline is the recorded spread of a set of runs of one commit.
type baseline struct {
	GoVersion  string                               `json:"go_version"`
	GoMaxProcs string                               `json:"gomaxprocs"`
	NProc      string                               `json:"nproc"`
	Seconds    string                               `json:"seconds"`
	Workloads  map[string]map[string]baselineMetric `json:"workloads"`
}

type baselineMetric struct {
	Runs   int     `json:"runs"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
}

// runSummarize implements `benchmark summarize [-write file] <runs-dir>`:
// each workload × metric's median, quartiles and spread over the runs, with
// every end-to-end spread held against a third of its bound.
func runSummarize(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("summarize", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	write := fs.String("write", "", "also write the summary as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: benchmark summarize [-spec BENCHMARK.json] [-write file] <runs-dir>")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "summarize:", err)
		return 1
	}
	runs, err := loadRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "summarize:", err)
		return 1
	}
	b := summarize(stdout, spec, runs)
	if *write != "" {
		blob, err := json.MarshalIndent(b, "", "  ")
		if err == nil {
			err = os.WriteFile(*write, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "summarize:", err)
			return 1
		}
	}
	return 0
}

func summarize(out io.Writer, spec benchSpec, runs []runFile) baseline {
	b := baseline{GoVersion: runtime.Version(), Workloads: map[string]map[string]baselineMetric{}}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	byWorkload := map[string][]runFile{}
	for _, r := range runs {
		byWorkload[r.workload] = append(byWorkload[r.workload], r)
		b.GoVersion, b.GoMaxProcs, b.NProc, b.Seconds = r.header["go"], r.header["gomaxprocs"], r.header["nproc"], r.header["seconds"]
	}
	fmt.Fprintf(out, "%-20s %-28s %4s %14s %14s %14s %8s %s\n", "workload", "metric", "runs", "median", "q1", "q3", "spread", "check")
	for _, w := range spec.Workloads {
		rs := byWorkload[w.Name]
		if len(rs) == 0 {
			continue
		}
		b.Workloads[w.Name] = map[string]baselineMetric{}
		names := map[string]bool{}
		for _, r := range rs {
			for n := range r.res.Metrics {
				names[n] = true
			}
		}
		sortedNames := make([]string, 0, len(names))
		for n := range names {
			sortedNames = append(sortedNames, n)
		}
		sort.Strings(sortedNames)
		for _, n := range sortedNames {
			var vs []float64
			for _, r := range rs {
				if m, ok := r.res.Metrics[n]; ok {
					vs = append(vs, m.Value)
				}
			}
			q1, q3 := quartiles(vs)
			bm := baselineMetric{Runs: len(vs), Median: median(vs), Q1: q1, Q3: q3, Spread: spread(vs)}
			b.Workloads[w.Name][n] = bm
			check := ""
			if bound, ok := bounds[n]; ok {
				check = "ok"
				if bm.Spread >= bound/3 {
					check = fmt.Sprintf("SPREAD >= bound/3 (%.4g)", bound/3)
				}
			}
			fmt.Fprintf(out, "%-20s %-28s %4d %14.6g %14.6g %14.6g %8.4f %s\n", w.Name, n, bm.Runs, bm.Median, q1, q3, bm.Spread, check)
		}
	}
	return b
}
