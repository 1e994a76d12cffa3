package lint_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"micrograd/internal/lint"
)

// loadTestdata parses and type-checks one golden package under
// testdata/src/<dir>, assigning it the given import path (the analyzers
// scope rules by path, e.g. internal/ vs cmd/).
func loadTestdata(t *testing.T, dir, path string) *lint.Package {
	t.Helper()
	full := filepath.Join("testdata", "src", dir)
	entries, err := os.ReadDir(full)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(full, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", e.Name(), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", full)
	}
	info := lint.NewInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check(path, fset, files, info); err != nil {
		t.Fatalf("type-checking %s: %v", dir, err)
	}
	return &lint.Package{Path: path, Fset: fset, Files: files, Info: info}
}

// wantRe matches the expectation markers in fixture files:
//
//	code // want "substring" "another substring"
//
// Each quoted string is one expected diagnostic on the marker's line whose
// message must contain the substring.
var wantRe = regexp.MustCompile(`want ((?:"(?:[^"\\]|\\.)*"\s*)+)`)

type want struct {
	file   string
	line   int
	substr string
}

func collectWants(t *testing.T, pkg *lint.Package) []want {
	t.Helper()
	var wants []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range regexp.MustCompile(`"(?:[^"\\]|\\.)*"`).FindAllString(m[1], -1) {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want marker %s: %v", pos, q, err)
					}
					wants = append(wants, want{file: pos.Filename, line: pos.Line, substr: s})
				}
			}
		}
	}
	return wants
}

// checkGoldens runs the analyzers over the fixture package and requires an
// exact match between diagnostics and // want markers.
func checkGoldens(t *testing.T, pkg *lint.Package, analyzers []*lint.Analyzer) {
	t.Helper()
	diags := lint.Check(pkg, analyzers)
	wants := collectWants(t, pkg)
	used := make([]bool, len(wants))
outer:
	for _, d := range diags {
		for i, w := range wants {
			if used[i] || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if strings.Contains(d.Message, w.substr) {
				used[i] = true
				continue outer
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for i, w := range wants {
		if !used[i] {
			t.Errorf("%s:%d: expected diagnostic containing %q, got none", w.file, w.line, w.substr)
		}
	}
}

func analyzerByName(t *testing.T, name string) *lint.Analyzer {
	t.Helper()
	for _, a := range lint.All() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// TestAnalyzerGoldens runs every analyzer over its golden package: at least
// one flagged case, one sanctioned-idiom negative case and one suppressed
// case each, plus the cmd/-scoped walltime negative.
func TestAnalyzerGoldens(t *testing.T) {
	cases := []struct {
		dir      string
		path     string
		analyzer string
	}{
		{"seededrand", "micrograd/internal/fixture", "seededrand"},
		{"walltime", "micrograd/internal/sim", "walltime"},
		{"walltime_cmd", "micrograd/cmd/simctl", "walltime"},
		{"maprange", "micrograd/internal/fixture", "maprange"},
		{"mixedatomic", "micrograd/internal/fixture", "mixedatomic"},
		{"floateq", "micrograd/internal/fixture", "floateq"},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			pkg := loadTestdata(t, tc.dir, tc.path)
			checkGoldens(t, pkg, []*lint.Analyzer{analyzerByName(t, tc.analyzer)})
		})
	}
}

// TestInternalScopeGate pins that the internal-only analyzers stay silent
// when the same violating code sits outside internal/ (the walltime_cmd
// fixture covers the AST path; this covers the path predicate itself).
func TestInternalScopeGate(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"micrograd/internal/powersim", true},
		{"internal/lint", true},
		{"micrograd/internal", true},
		{"micrograd/cmd/mgbench", false},
		{"micrograd/examples/quickstart", false},
		{"micrograd/internals/other", false},
	}
	for _, tc := range cases {
		pass := &lint.Pass{Package: &lint.Package{Path: tc.path}}
		if got := pass.InternalPackage(); got != tc.want {
			t.Errorf("InternalPackage(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}

// TestStaleSuppressions pins the suppression hygiene rules: a directive
// that suppresses nothing, a directive without a reason, and a directive
// naming an unknown analyzer are each reported as errors.
func TestStaleSuppressions(t *testing.T) {
	pkg := loadTestdata(t, "suppression", "micrograd/internal/fixture")
	diags := lint.Check(pkg, lint.All())
	var got []string
	for _, d := range diags {
		if d.Analyzer != "suppression" {
			t.Errorf("unexpected non-suppression diagnostic: %s", d)
			continue
		}
		got = append(got, fmt.Sprintf("%d: %s", d.Pos.Line, d.Message))
	}
	wants := []string{
		"stale //lint:allow floateq",
		"malformed directive",
		`unknown analyzer "nosuchanalyzer"`,
	}
	if len(got) != len(wants) {
		t.Fatalf("got %d suppression diagnostics %v, want %d", len(got), got, len(wants))
	}
	for i, w := range wants {
		if !strings.Contains(got[i], w) {
			t.Errorf("diagnostic %d = %q, want it to contain %q", i, got[i], w)
		}
	}
}

// TestCheckDeterministic pins that Check's output order is stable: the
// linter that enforces determinism must itself be deterministic.
func TestCheckDeterministic(t *testing.T) {
	pkg := loadTestdata(t, "maprange", "micrograd/internal/fixture")
	base := fmt.Sprint(lint.Check(pkg, lint.All()))
	for i := 0; i < 10; i++ {
		if again := fmt.Sprint(lint.Check(pkg, lint.All())); again != base {
			t.Fatalf("Check order changed between runs:\n%s\nvs\n%s", base, again)
		}
	}
}

// TestAnalyzerNames covers the suite's registry: every analyzer has a
// unique lowercase name, the tag its diagnostics and suppressions use, and
// a doc line and run function.
func TestAnalyzerNames(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range lint.All() {
		if a.Name == "" || strings.ToLower(a.Name) != a.Name || seen[a.Name] {
			t.Errorf("analyzer name %q must be unique lowercase", a.Name)
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q lacks doc or run function", a.Name)
		}
		seen[a.Name] = true
	}
}
