package micrograd

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIStepsAreMakeCI pins the one definition of every CI check: each
// `run:` step of the workflow is a single `make <target>`, and those targets
// are the Makefile's ci prerequisites in the same order, so `make ci` runs
// exactly what a pull request is checked against.
func TestCIStepsAreMakeCI(t *testing.T) {
	workflow, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}

	runLine := regexp.MustCompile(`^\s*(?:-\s+)?run:\s*(.*)$`)
	makeStep := regexp.MustCompile(`^make ([\w-]+)$`)
	var steps []string
	for _, line := range strings.Split(string(workflow), "\n") {
		m := runLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		target := makeStep.FindStringSubmatch(strings.TrimSpace(m[1]))
		if target == nil {
			t.Errorf("CI step %q is not a single `make <target>`", strings.TrimSpace(line))
			continue
		}
		steps = append(steps, target[1])
	}

	ciRule := regexp.MustCompile(`(?m)^ci:(.*)$`).FindStringSubmatch(string(makefile))
	if ciRule == nil {
		t.Fatal("Makefile has no ci target")
	}
	if want := strings.Fields(ciRule[1]); !slices.Equal(steps, want) {
		t.Errorf("CI runs make targets %v, want the Makefile's ci prerequisites %v", steps, want)
	}
}

// TestEveryFuzzTargetRunsInMakeFuzz keeps the Makefile's fuzz target in step
// with the fuzz targets in the tree: every `func Fuzz*` outside benchmark/
// (a separate module with its own checks) is run by one `-fuzz=` line for
// its package, and every such line's pattern matches exactly one existing
// target of the package it names — the go tool refuses a pattern that
// matches several.
func TestEveryFuzzTargetRunsInMakeFuzz(t *testing.T) {
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(\w+ \*testing\.F\)`)
	targets := map[string][]string{} // package path ("./internal/x") -> targets
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := "./" + filepath.ToSlash(filepath.Dir(path))
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			targets[pkg] = append(targets[pkg], m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	rule := regexp.MustCompile(`(?m)^fuzz:\n((?:\t.*\n)+)`).FindStringSubmatch(string(makefile))
	if rule == nil {
		t.Fatal("Makefile has no fuzz target")
	}
	fuzzLine := regexp.MustCompile(`-fuzz=(\S+).*\s(\./\S+)$`)
	run := map[string]bool{} // "pkg.Target" fuzzed by make fuzz
	for _, line := range strings.Split(strings.TrimRight(rule[1], "\n"), "\n") {
		m := fuzzLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("fuzz recipe line %q names no -fuzz pattern and package", strings.TrimSpace(line))
			continue
		}
		pattern := strings.ReplaceAll(strings.Trim(m[1], "'"), "$$", "$")
		re, err := regexp.Compile(pattern)
		if err != nil {
			t.Errorf("fuzz pattern %q: %v", m[1], err)
			continue
		}
		var matched []string
		for _, name := range targets[m[2]] {
			if re.MatchString(name) {
				matched = append(matched, name)
			}
		}
		if len(matched) != 1 {
			t.Errorf("make fuzz pattern %s matches %v in %s, want exactly one fuzz target", m[1], matched, m[2])
			continue
		}
		run[m[2]+"."+matched[0]] = true
	}
	for pkg, names := range targets {
		for _, name := range names {
			if !run[pkg+"."+name] {
				t.Errorf("%s in %s is not run by make fuzz", name, pkg)
			}
		}
	}
}
