package experiments

import (
	"context"
	"strings"
	"testing"

	"micrograd/internal/metrics"
	"micrograd/internal/platform"
	"micrograd/internal/stress"
)

// TestRunSpatialBeatsObliviousAndRenders is the deterministic spatial pin: on
// a 4-core 2x2-grid chip the spatial-noise-virus — warm-started from the
// spatially-oblivious corun-noise-virus winner — must end strictly above that
// winner's own chip-worst droop on the same grid. The margin is what knowing
// the floorplan buys the attacker.
func TestRunSpatialBeatsObliviousAndRenders(t *testing.T) {
	res, err := RunSpatial(context.Background(), "small", 4, 2, 2, "", transientBudget())
	if err != nil {
		t.Fatal(err)
	}
	if res.Core != platform.SmallCore || res.Cores != 4 || res.Rows != 2 || res.Cols != 2 {
		t.Errorf("result identifies as %d x %s on %dx%d", res.Cores, res.Core, res.Rows, res.Cols)
	}
	if res.ObliviousOnGrid <= 0 {
		t.Fatalf("oblivious-on-grid droop %v mV should be positive", res.ObliviousOnGrid)
	}
	if res.Report.BestValue <= res.ObliviousOnGrid {
		t.Errorf("spatial virus droop %.3f mV should strictly exceed the oblivious config's %.3f mV on the same grid",
			res.Report.BestValue, res.ObliviousOnGrid)
	}
	for row := 0; row < 2; row++ {
		for col := 0; col < 2; col++ {
			if _, ok := res.Full[metrics.NodeDroopMV(row, col)]; !ok {
				t.Errorf("characterization missing %s", metrics.NodeDroopMV(row, col))
			}
			if _, ok := res.Full[metrics.NodeTempC(row, col)]; !ok {
				t.Errorf("characterization missing %s", metrics.NodeTempC(row, col))
			}
		}
	}
	if res.Trace.Empty() {
		t.Error("characterization should include the chip trace")
	}
	if got, want := res.Floorplan.String(), "0,0;0,1;1,0;1,1"; got != want {
		t.Errorf("default floorplan %q, want %q", got, want)
	}
	out := res.Render()
	for _, want := range []string{"2x2 PDN/thermal grid", "oblivious config re-scored on grid",
		"node (1,1) droop", "floorplan (row,col per core)", "phase offsets"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered result missing %q:\n%s", want, out)
		}
	}
	if series := res.Series(); len(series) != 2 || len(series[0].X) == 0 || len(series[1].X) == 0 {
		t.Error("progression series should cover both runs")
	}
}

func TestRunSpatialKindSkipsComparison(t *testing.T) {
	var rows []ProgressRow
	b := transientBudget()
	b.OnProgress = func(r ProgressRow) { rows = append(rows, r) }
	res, err := RunKind(context.Background(), Request{Kind: string(stress.HotspotMigrationVirus), Core: "small", Cores: 4, Rows: 2, Cols: 2}, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.BestValue <= 0 || res.Trace.Empty() {
		t.Error("kind run should still tune and characterize the spatial virus")
	}
	if res.Report.Metric != metrics.ChipTempC {
		t.Errorf("hotspot-migration-virus tunes %s, want %s", res.Report.Metric, metrics.ChipTempC)
	}
	if strings.Contains(res.Output, "oblivious") || !strings.Contains(res.Output, "2x2 PDN/thermal grid") {
		t.Errorf("render without a comparison should omit the oblivious rows:\n%s", res.Output)
	}
	for _, r := range rows {
		if r.Series != "Spatial" {
			t.Errorf("kind run streamed a %q row; only the spatial series should run", r.Series)
		}
	}
}

func TestRunSpatialValidation(t *testing.T) {
	b := transientBudget()
	if _, err := RunSpatial(context.Background(), "small", 1, 1, 1, "", b); err == nil {
		t.Error("single-core spatial run should be rejected")
	}
	if _, err := RunSpatial(context.Background(), "medium", 4, 2, 2, "", b); err == nil {
		t.Error("unknown core should be rejected")
	}
	if _, err := RunSpatial(context.Background(), "small", 4, 0, 2, "", b); err == nil {
		t.Error("0-row grid should be rejected")
	}
}

func TestRunSpatialParallelMatchesSerial(t *testing.T) {
	serial, err := RunSpatial(context.Background(), "small", 4, 2, 2, "", transientBudget())
	if err != nil {
		t.Fatal(err)
	}
	pb := transientBudget()
	pb.Parallel = 8
	par, err := RunSpatial(context.Background(), "small", 4, 2, 2, "", pb)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Report.BestValue != par.Report.BestValue {
		t.Errorf("parallel best %v differs from serial %v", par.Report.BestValue, serial.Report.BestValue)
	}
	if serial.ObliviousOnGrid != par.ObliviousOnGrid {
		t.Errorf("parallel oblivious-on-grid %v differs from serial %v", par.ObliviousOnGrid, serial.ObliviousOnGrid)
	}
	if serial.Report.Config.Key() != par.Report.Config.Key() {
		t.Error("parallel best configuration differs from serial")
	}
}
