package micrograd

import (
	"os"
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
