// Package lint implements mglint, a repo-specific static-analysis suite
// that mechanically enforces the determinism and concurrency invariants the
// test suite otherwise only enforces by example: seeded randomness, no wall
// clock in simulation code, no order-dependent iteration over metric maps,
// no mixed atomic/plain field access, and no floating-point equality.
//
// Each rule is an Analyzer run over one type-checked package at a time by
// Check. Diagnostics may be suppressed with a
//
//	//lint:allow <analyzer> <reason>
//
// comment on the offending line or on the line immediately above it. A
// suppression that matches no diagnostic is itself reported as an error, so
// suppressions cannot outlive their reason.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// directives. It must be a single lowercase word.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run inspects the package held by pass and reports violations via
	// pass.Reportf. Diagnostic order does not matter; Check sorts.
	Run func(pass *Pass)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		SeededRand,
		WallTime,
		MapRange,
		MixedAtomic,
		FloatEq,
	}
}

// Package is one type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path; analyzers use it to scope rules
	// (e.g. wall clock is allowed outside internal/... packages).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Pass carries one package through one analyzer.
type Pass struct {
	*Package
	analyzer *Analyzer
	diags    []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InternalPackage reports whether the package under analysis lives below an
// internal/ path element — the simulation and tuning code the determinism
// rules scope to. cmd/ and examples/ binaries are outside it.
func (p *Pass) InternalPackage() bool {
	return p.Path == "internal" ||
		strings.HasPrefix(p.Path, "internal/") ||
		strings.Contains(p.Path, "/internal/") ||
		strings.HasSuffix(p.Path, "/internal")
}

// Check runs the given analyzers over pkg, applies //lint:allow
// suppressions, reports stale or malformed suppressions, and returns the
// surviving diagnostics sorted by position.
func Check(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Package: pkg, analyzer: a}
		a.Run(pass)
		raw = append(raw, pass.diags...)
	}

	active := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		active[a.Name] = true
	}
	allows, out := collectAllows(pkg, active)

	// A diagnostic is suppressed by an allow directive for its analyzer on
	// the same line or the line immediately above.
	for _, d := range raw {
		suppressed := false
		for _, al := range allows {
			if al.analyzer != d.Analyzer || al.file != d.Pos.Filename {
				continue
			}
			if al.line == d.Pos.Line || al.line == d.Pos.Line-1 {
				al.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}

	// Stale suppressions: an allow that matched nothing has outlived its
	// reason and must be deleted.
	for _, al := range allows {
		if !al.used {
			out = append(out, Diagnostic{
				Pos:      al.pos,
				Analyzer: "suppression",
				Message: fmt.Sprintf(
					"stale //lint:allow %s: no %s diagnostic on this or the next line", al.analyzer, al.analyzer),
			})
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// allow is one parsed //lint:allow directive.
type allow struct {
	file     string
	line     int
	pos      token.Position
	analyzer string
	used     bool
}

const allowPrefix = "//lint:allow"

// collectAllows parses every //lint:allow directive in the package.
// Malformed directives and directives naming an analyzer outside the active
// set are returned as diagnostics immediately (they can never match).
func collectAllows(pkg *Package, active map[string]bool) ([]*allow, []Diagnostic) {
	var allows []*allow
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				fields := strings.Fields(rest)
				if len(rest) > 0 && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:allowed — not this directive
				}
				if len(fields) < 2 {
					diags = append(diags, Diagnostic{
						Pos:      pos,
						Analyzer: "suppression",
						Message:  "malformed directive: want //lint:allow <analyzer> <reason>",
					})
					continue
				}
				name := fields[0]
				if !active[name] {
					diags = append(diags, Diagnostic{
						Pos:      pos,
						Analyzer: "suppression",
						Message:  fmt.Sprintf("//lint:allow names unknown analyzer %q", name),
					})
					continue
				}
				allows = append(allows, &allow{
					file:     pos.Filename,
					line:     pos.Line,
					pos:      pos,
					analyzer: name,
				})
			}
		}
	}
	return allows, diags
}

// NewInfo returns a types.Info populated with every map the analyzers
// consult; loaders share it so Check sees full use/selection/type facts.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
