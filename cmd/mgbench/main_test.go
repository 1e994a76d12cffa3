package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"micrograd/internal/experiments"
)

// TestParseGrid pins the -grid syntax. An empty value leaves the grid to
// the request's default (experiments.Request.Normalized).
func TestParseGrid(t *testing.T) {
	cases := []struct {
		in         string
		rows, cols int
		wantErr    bool
	}{
		{"", 0, 0, false},
		{"2x3", 2, 3, false},
		{" 2 X 3 ", 2, 3, false},
		{"2x3x4", 0, 0, true},
		{"2", 0, 0, true},
		{"0x3", 0, 0, true},
		{"3x0", 0, 0, true},
		{"ax3", 0, 0, true},
	}
	for _, c := range cases {
		rows, cols, err := parseGrid(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("parseGrid(%q) error = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && (rows != c.rows || cols != c.cols) {
			t.Errorf("parseGrid(%q) = %dx%d, want %dx%d", c.in, rows, cols, c.rows, c.cols)
		}
	}
}

// TestParseFreqs pins the -freqs syntax; a clock that parses but is not
// positive and finite is the request's to reject, before any output.
func TestParseFreqs(t *testing.T) {
	freqs, err := parseFreqs(" 2.0, 1.2 ")
	if err != nil || len(freqs) != 2 || freqs[0] != 2.0 || freqs[1] != 1.2 {
		t.Fatalf("parseFreqs = %v, %v", freqs, err)
	}
	if got, err := parseFreqs(""); got != nil || err != nil {
		t.Fatalf("empty list = %v, %v", got, err)
	}
	if _, err := parseFreqs("2.0,x"); err == nil {
		t.Error("parseFreqs(\"2.0,x\") accepted")
	}
	for _, bad := range []string{"0,2", "-1,2", "+Inf,2", "NaN,2"} {
		var out bytes.Buffer
		if err := run([]string{"-kind", "dvfs-noise-virus", "-freqs", bad}, &out); err == nil || out.Len() != 0 {
			t.Errorf("-freqs %s: err = %v after %d bytes of output, want a rejection before any", bad, err, out.Len())
		}
	}
}

// TestFlagsAndJSONGiveOneRequest parses mgbench flag lines and the
// equivalent mgserve job bodies: both front ends must describe the same
// run with the same Request.
func TestFlagsAndJSONGiveOneRequest(t *testing.T) {
	for _, c := range []struct {
		flags []string
		body  string
	}{
		{[]string{"-kind", "spatial", "-quick", "-core", "small", "-cores", "4", "-grid", "2x2",
			"-floorplan", "0,0;0,0;1,1;1,1", "-instructions", "3000", "-seed", "1", "-parallel", "1"},
			`{"kind":"spatial","quick":true,"core":"small","cores":4,"rows":2,"cols":2,"floorplan":"0,0;0,0;1,1;1,1","instructions":3000,"seed":1,"parallel":1}`},
		{[]string{"-kind", "Power-Virus", "-core", "LARGE", "-epochs", "3", "-seed", "-4", "-budget", "50",
			"-power-cap", "20.5", "-tuner", "Halving-CMAES", "-parallel", "2"},
			`{"kind":"power-virus","core":"large","epochs":3,"seed":-4,"budget":50,"power_cap_w":20.5,"tuner":"halving-cmaes","parallel":2}`},
		{[]string{"-kind", "dvfs-noise-virus", "-freqs", "2.0, 1.2", "-parallel", "3"},
			`{"kind":"dvfs-noise-virus","freqs_ghz":[2.0,1.2],"parallel":3}`},
		{[]string{"-kind", "tunercmp", "-cores", "4", "-grid", "2x2", "-tuner", "cmaes,halving-cmaes", "-parallel", "1"},
			`{"kind":"tunercmp","cores":4,"rows":2,"cols":2,"tuners":["cmaes","halving-cmaes"],"parallel":1}`},
		{[]string{"-experiment", "fig2", "-benchmarks", "mcf,hmmer", "-parallel", "1"},
			`{"benchmarks":["mcf","hmmer"],"parallel":1}`},
	} {
		fromFlags, _, err := parseArgs(c.flags)
		if err != nil {
			t.Fatalf("%v: %v", c.flags, err)
		}
		var fromJSON experiments.Request
		if err := json.Unmarshal([]byte(c.body), &fromJSON); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fromFlags, fromJSON) {
			t.Errorf("flags %v give\n%+v\nJSON %s gives\n%+v", c.flags, fromFlags, c.body, fromJSON)
		}
	}
}

func TestRunStaticTables(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "tableI"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-experiment", "tableII"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "completed in") {
		t.Fatalf("table runs produced: %q", out.String())
	}
}

// TestRunRejectsBadInputs checks that a bad flag line fails before
// anything runs or prints.
func TestRunRejectsBadInputs(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-experiment", "no-such-experiment"},
		{"-kind", "no-such-kind"},
		{"-grid", "bogus"},
		{"-freqs", "bogus"},
		{"-experiment", "fig5", "-tuner", "gd,ga"}, // tuner lists are tunercmp-only
		{"-experiment", "spatial", "-floorplan", "9,9", "-grid", "2x2"},
		{"-kind", "power-virus", "-tuner", "halving-gd"}, // no budget to plan rungs from
		{"-kind", "perf-virus", "-budget", "-5"},
		{"-experiment", "fig5", "-instructions", "-1"},
		{"-kind", "corun-noise-virus", "-cores", "1"},
		{"-kind", "spatial", "-cores", "1"},
		// Every chip experiment in the run list is checked as its kind
		// before the first experiment prints.
		{"-experiment", "all", "-quick", "-instructions", "1000", "-benchmarks", "mcf", "-epochs", "2", "-cores", "1"},
		{"-experiment", "all", "-quick", "-instructions", "1000", "-benchmarks", "mcf", "-epochs", "2", "-freqs", "2.0"},
		{"-experiment", "all", "-grid", "2x2", "-floorplan", "0,0;9,9"},
		{"-experiment", "dvfs", "-freqs", "1.5"},
		{"-experiment", "spatial", "-cores", "1"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) printed before failing:\n%s", args, out.String())
		}
	}
}

func TestRunKindWithCSVAndTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick tuning loop")
	}
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.csv")
	var out bytes.Buffer
	args := []string{"-kind", "perf-virus", "-quick", "-core", "small",
		"-instructions", "2000", "-seed", "1", "-memo-cap", "64",
		"-csv", dir, "-trace", trace}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{trace, filepath.Join(dir, "perf-virus.csv")} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("%s missing or empty (%v)", f, err)
		}
	}
	if !strings.Contains(out.String(), "perf-virus") {
		t.Fatalf("kind run produced: %q", out.String())
	}
}

// TestRunKindCloningAndTunerCmp runs the two kinds that are not stress
// kinds through -kind, as an mgserve job names them: each prints its table,
// and -trace, which needs one tuned kernel, is rejected before any output,
// as it is on an experiment, which has no -kind. tunercmp is a kind, not an
// -experiment name.
func TestRunKindCloningAndTunerCmp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two quick tuning loops")
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-kind", "cloning", "-quick", "-benchmarks", "mcf", "-epochs", "2", "-instructions", "1500", "-parallel", "1"}, "FIG2: workload cloning"},
		{[]string{"-kind", "Cloning", "-core", "small", "-quick", "-benchmarks", "mcf", "-epochs", "2", "-instructions", "1500", "-parallel", "1"}, "FIG3: workload cloning"},
		{[]string{"-kind", "tunercmp", "-quick", "-core", "small", "-cores", "2", "-grid", "1x2", "-tuner", "random",
			"-budget", "20", "-epochs", "2", "-instructions", "1500", "-parallel", "1"}, "random"},
	} {
		var out bytes.Buffer
		if err := run(c.args, &out); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if !strings.Contains(out.String(), c.want) || !strings.Contains(out.String(), "completed in") {
			t.Errorf("%v printed:\n%s", c.args, out.String())
		}
		out.Reset()
		if err := run(append(c.args, "-trace", filepath.Join(t.TempDir(), "trace.csv")), &out); err == nil || out.Len() != 0 {
			t.Errorf("%v -trace: err = %v after %d bytes of output, want a rejection before any", c.args, err, out.Len())
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-experiment", "tableI", "-trace", filepath.Join(t.TempDir(), "trace.csv")}, &out); err == nil || out.Len() != 0 {
		t.Errorf("-experiment tableI -trace: err = %v after %d bytes of output, want a rejection before any", err, out.Len())
	}
	out.Reset()
	if err := run([]string{"-experiment", "tunercmp", "-cores", "1"}, &out); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("-experiment tunercmp: err = %v, want an unknown-experiment error", err)
	}
}
