package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"micrograd/internal/tuner"
)

// TestRunFlagsWritesArtifacts drives the flag path with a tuner only the
// tuner registry knows and checks every framework artifact is written.
func TestRunFlagsWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{"-use-case", "stress", "-stress-kind", "perf-virus", "-core", "small",
		"-tuner", "cmaes", "-epochs", "2", "-instructions", "2000", "-out", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `tuner "cmaes"`) || !strings.Contains(out.String(), "artifacts written:") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
	for _, suffix := range []string{".S", ".c", ".knobs.txt", ".metrics.txt", ".progression.csv"} {
		path := filepath.Join(dir, "perf-virus"+suffix)
		if data, err := os.ReadFile(path); err != nil || len(data) == 0 {
			t.Errorf("artifact %s missing or empty: %v", path, err)
		}
	}
}

// TestRunConfigFile drives the -config path: the JSON document alone
// selects use case, core, tuner and output directory.
func TestRunConfigFile(t *testing.T) {
	dir := t.TempDir()
	artifacts := filepath.Join(dir, "out")
	doc := `{"use_case": "stress", "core": "small", "tuner": "annealing", "stress_kind": "power-virus",
		"max_epochs": 2, "dynamic_instructions": 2000, "loop_size": 150, "parallel": 1,
		"output_dir": ` + strconv.Quote(artifacts) + `}`
	path := filepath.Join(dir, "run.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-config", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `stress on the "small" core with tuner "annealing"`) {
		t.Errorf("config not applied:\n%s", out.String())
	}
	if _, err := os.Stat(filepath.Join(artifacts, "power-virus.S")); err != nil {
		t.Errorf("config output_dir not written: %v", err)
	}
}

// TestRunRejectsUnknownNames checks the front-end rejects tuner and core
// names the registries do not know, before any tuning starts.
func TestRunRejectsUnknownNames(t *testing.T) {
	for _, args := range [][]string{
		{"-use-case", "stress", "-tuner", "hillclimb"},
		{"-use-case", "stress", "-core", "medium"},
		{"-use-case", "cloning", "-benchmark", "nosuch"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Errorf("run %v: err = %v, want an unknown-name error", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("run %v started a run:\n%s", args, out.String())
		}
	}
}

// TestRunEveryRegisteredTuner runs the stress use case with every tuner
// the registry lists, at a tiny budget. The halving wrappers plan their
// rungs from an evaluation budget the configuration does not have, so they
// must be rejected before anything prints; every other tuner must finish.
func TestRunEveryRegisteredTuner(t *testing.T) {
	for _, name := range tuner.Names() {
		var out bytes.Buffer
		err := run([]string{"-use-case", "stress", "-stress-kind", "perf-virus", "-core", "small",
			"-tuner", name, "-epochs", "2", "-instructions", "1000", "-loop-size", "100", "-parallel", "1"}, &out)
		if strings.HasPrefix(name, "halving-") {
			if err == nil || out.Len() != 0 {
				t.Errorf("tuner %s: err = %v after %d bytes of output, want a rejection before any", name, err, out.Len())
			}
			continue
		}
		if err != nil {
			t.Errorf("tuner %s: %v", name, err)
		} else if !strings.Contains(out.String(), "run \"perf-virus\" finished") {
			t.Errorf("tuner %s: unexpected output:\n%s", name, out.String())
		}
	}
}

// TestRunRejectsWhatItCannotRun checks that a stress kind the single-core
// framework cannot run, or cannot name, fails at parse time, before the
// banner.
func TestRunRejectsWhatItCannotRun(t *testing.T) {
	for _, kind := range []string{"corun-noise-virus", "dvfs-noise-virus", "spatial-noise-virus", "hotspot-migration-virus", "no-such-virus"} {
		var out bytes.Buffer
		if err := run([]string{"-use-case", "stress", "-stress-kind", kind}, &out); err == nil || out.Len() != 0 {
			t.Errorf("stress kind %s: err = %v after %d bytes of output, want a rejection before any", kind, err, out.Len())
		}
	}
}
