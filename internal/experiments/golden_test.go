package experiments

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"

	"micrograd/internal/metrics"
	"micrograd/internal/powersim"
	"micrograd/internal/report"
	"micrograd/internal/stress"
)

// update regenerates the golden output files instead of comparing:
//
//	go test ./internal/experiments -run TestGoldenOutput -update
var update = flag.Bool("update", false, "rewrite the golden output files under testdata/golden")

// goldenBudget is the tiny budget the golden outputs are recorded at.
// Changing it invalidates every golden file.
func goldenBudget() Budget {
	return Budget{
		DynamicInstructions:   2000,
		CloneEpochs:           3,
		StressEpochs:          3,
		LoopSize:              120,
		Benchmarks:            []string{"hmmer", "mcf"},
		BruteForceEvaluations: 64,
		Seed:                  1,
		Parallel:              1,
	}
}

// goldenOutput is everything one run prints or writes: the rendered table,
// the CSV mgbench -csv dumps, the -trace CSV of a kind run, and the
// OnProgress rows the run streamed.
type goldenOutput struct {
	render string
	csv    string
	trace  string
	rows   []ProgressRow
}

// String lays the artifacts out as one golden file.
func (g goldenOutput) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "== render ==\n%s\n", g.render)
	if g.csv != "" {
		fmt.Fprintf(&b, "== csv ==\n%s", g.csv)
	}
	if g.trace != "" {
		fmt.Fprintf(&b, "== trace ==\n%s", g.trace)
	}
	fmt.Fprintf(&b, "== progress (%d rows) ==\n", len(g.rows))
	for _, r := range g.rows {
		fmt.Fprintf(&b, "%s,%g,%g\n", r.Series, r.X, r.Y)
	}
	return b.String()
}

// progressSink collects a run's OnProgress rows. Runs within one experiment
// may stream concurrently, so rows are grouped by series (stably, keeping
// each series' own order) before they are compared.
type progressSink struct {
	mu   sync.Mutex
	rows []ProgressRow
}

func (s *progressSink) add(r ProgressRow) {
	s.mu.Lock()
	s.rows = append(s.rows, r)
	s.mu.Unlock()
}

func (s *progressSink) sorted() []ProgressRow {
	sort.SliceStable(s.rows, func(i, j int) bool { return s.rows[i].Series < s.rows[j].Series })
	return s.rows
}

func seriesCSV(t *testing.T, series ...report.Series) string {
	t.Helper()
	var b bytes.Buffer
	if err := report.SeriesCSV(&b, series...); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func traceCSV(t *testing.T, tr powersim.PowerTrace) string {
	t.Helper()
	var b bytes.Buffer
	if err := tr.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// goldenKind runs one -kind stress test the way mgbench -kind and mgserve
// run it.
func goldenKind(t *testing.T, ctx context.Context, req Request, b Budget) goldenOutput {
	t.Helper()
	res, err := RunKind(ctx, req, b)
	if err != nil {
		t.Fatal(err)
	}
	return goldenOutput{
		render: res.Output,
		csv:    seriesCSV(t, res.Report.ProgressionSeries(req.Kind)),
		trace:  traceCSV(t, res.Trace),
	}
}

// goldenCases lists every pinned run. Each returns its output; the
// progress rows are filled in by TestGoldenOutput.
var goldenCases = []struct {
	name string
	// budget adjusts goldenBudget for the case (nil keeps it).
	budget func(*Budget)
	run    func(t *testing.T, ctx context.Context, b Budget) goldenOutput
}{
	{name: "fig2", run: func(t *testing.T, ctx context.Context, b Budget) goldenOutput {
		res, err := RunFig2(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := report.RadarTable(res.Figure, metrics.CloningMetricNames(), res.AccuracyRatios(), res.EpochsPerBenchmark()).WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return goldenOutput{render: res.Render(), csv: csv.String()}
	}},
	{name: "fig5", run: func(t *testing.T, ctx context.Context, b Budget) goldenOutput {
		res, err := RunFig5(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		return goldenOutput{render: res.Render(), csv: seriesCSV(t, res.Series()...)}
	}},
	{name: "fig6", run: func(t *testing.T, ctx context.Context, b Budget) goldenOutput {
		res, err := RunFig6(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		return goldenOutput{render: res.Render() + TableIIIFrom(res.GD).Render(), csv: seriesCSV(t, res.Series()...)}
	}},
	{name: "stresscmp", run: func(t *testing.T, ctx context.Context, b Budget) goldenOutput {
		res, err := RunStressCompare(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		var series []report.Series
		for _, run := range res.Runs {
			series = append(series, run.Report.ProgressionSeries(string(run.Kind)))
		}
		return goldenOutput{render: res.Render(), csv: seriesCSV(t, series...)}
	}},
	{name: "corun", run: func(t *testing.T, ctx context.Context, b Budget) goldenOutput {
		res, err := RunCoRun(ctx, "small", 2, b)
		if err != nil {
			t.Fatal(err)
		}
		return goldenOutput{render: res.Render(), csv: seriesCSV(t, res.Series()...), trace: traceCSV(t, res.Trace)}
	}},
	{name: "dvfs", run: func(t *testing.T, ctx context.Context, b Budget) goldenOutput {
		res, err := RunDVFS(ctx, "small", 2, []float64{2.0, 1.2}, b)
		if err != nil {
			t.Fatal(err)
		}
		return goldenOutput{render: res.Render(), csv: seriesCSV(t, res.Series()...), trace: traceCSV(t, res.Trace)}
	}},
	{name: "spatial", run: func(t *testing.T, ctx context.Context, b Budget) goldenOutput {
		res, err := RunSpatial(ctx, "small", 4, 2, 2, "", b)
		if err != nil {
			t.Fatal(err)
		}
		return goldenOutput{render: res.Render(), csv: seriesCSV(t, res.Series()...), trace: traceCSV(t, res.Trace)}
	}},
	{name: "tunercmp", run: func(t *testing.T, ctx context.Context, b Budget) goldenOutput {
		res, err := RunTunerCmp(ctx, "small", 4, 2, 2, []string{"cmaes", "halving-gd"}, b)
		if err != nil {
			t.Fatal(err)
		}
		return goldenOutput{render: res.Render(), csv: seriesCSV(t, res.Series()...)}
	}},
	{name: "kind_voltage-noise-virus", run: func(t *testing.T, ctx context.Context, b Budget) goldenOutput {
		return goldenKind(t, ctx, Request{Kind: string(stress.VoltageNoiseVirus), Core: "small"}, b)
	}},
	{name: "kind_power-virus_capped", budget: func(b *Budget) {
		b.Tuner, b.MaxEvaluations, b.PowerCapW = "cmaes", 24, 1.5
	}, run: func(t *testing.T, ctx context.Context, b Budget) goldenOutput {
		return goldenKind(t, ctx, Request{Kind: string(stress.PowerVirus), Core: "large"}, b)
	}},
	{name: "kind_corun-noise-virus", run: func(t *testing.T, ctx context.Context, b Budget) goldenOutput {
		return goldenKind(t, ctx, Request{Kind: string(stress.CoRunNoiseVirus), Core: "small", Cores: 2}, b)
	}},
	{name: "kind_dvfs-noise-virus", budget: func(b *Budget) {
		b.Tuner, b.MaxEvaluations = "random", 20
	}, run: func(t *testing.T, ctx context.Context, b Budget) goldenOutput {
		return goldenKind(t, ctx, Request{Kind: string(stress.DVFSNoiseVirus), Core: "small", Cores: 2, FreqsGHz: []float64{2.0, 1.2}}, b)
	}},
	{name: "kind_hotspot-migration-virus", run: func(t *testing.T, ctx context.Context, b Budget) goldenOutput {
		return goldenKind(t, ctx, Request{Kind: string(stress.HotspotMigrationVirus), Core: "small", Cores: 4, Rows: 2, Cols: 2}, b)
	}},
	{name: "kind_spatial-noise-virus_floorplan", run: func(t *testing.T, ctx context.Context, b Budget) goldenOutput {
		return goldenKind(t, ctx, Request{Kind: string(stress.SpatialNoiseVirus), Core: "small", Cores: 4, Rows: 2, Cols: 2, Floorplan: "0,0;0,0;1,1;1,1"}, b)
	}},
}

// TestGoldenOutput pins the rendered tables, the CSV dumps, the kind runs'
// power traces and the streamed progress rows of every experiment and every
// -kind path at a tiny budget, byte for byte. Refactors of the budget-to-run
// path must leave these files unchanged; an intentional change is recorded
// with -update and reviewed as a testdata diff.
func TestGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at a tiny budget")
	}
	if runtime.GOARCH != "amd64" && !*update {
		// Other architectures may fuse multiply-adds, which moves the last
		// printed digit of some values.
		t.Skipf("golden output is recorded on amd64, not %s", runtime.GOARCH)
	}
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			b := goldenBudget()
			if c.budget != nil {
				c.budget(&b)
			}
			sink := &progressSink{}
			b.OnProgress = sink.add
			out := c.run(t, context.Background(), b)
			out.rows = sink.sorted()
			got := out.String()
			path := filepath.Join("testdata", "golden", c.name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (record it with -update)", err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}
