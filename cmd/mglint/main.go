// Command mglint runs the repo's determinism and concurrency analyzers
// (internal/lint) over the non-test files of Go packages:
//
//	mglint [-list] [packages]   (default ./...)
//
// Package metadata and export data come from `go list -export -deps -json`.
// Exit status: 0 clean, 1 diagnostics reported, 2 operational error (bad
// patterns, packages that do not type-check).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"micrograd/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("mglint", flag.ContinueOnError)
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	return runStandalone(patterns)
}

// listPackage is the subset of `go list -json` output mglint needs.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

func runStandalone(patterns []string) int {
	cmdArgs := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", cmdArgs...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mglint: go list failed: %v\n", err)
		return 2
	}

	exports := map[string]string{} // import path -> export data file
	var targets []*listPackage
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			fmt.Fprintf(os.Stderr, "mglint: decoding go list output: %v\n", err)
			return 2
		}
		if p.Error != nil {
			fmt.Fprintf(os.Stderr, "mglint: %s: %s\n", p.ImportPath, p.Error.Err)
			return 2
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			cp := p
			targets = append(targets, &cp)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return gc.Import(path)
	})

	exit := 0
	for _, p := range targets {
		var files []string
		for _, f := range p.GoFiles {
			files = append(files, filepath.Join(p.Dir, f))
		}
		pkg, err := loadPackage(fset, p.ImportPath, files, imp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mglint: %s: %v\n", p.ImportPath, err)
			return 2
		}
		for _, d := range lint.Check(pkg, lint.All()) {
			printDiag(d)
			exit = 1
		}
	}
	return exit
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// loadPackage parses and type-checks one package from its non-test files.
func loadPackage(fset *token.FileSet, path string, files []string, imp types.Importer) (*lint.Package, error) {
	var astFiles []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		astFiles = append(astFiles, f)
	}
	info := lint.NewInfo()
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(path, fset, astFiles, info); err != nil {
		return nil, err
	}
	return &lint.Package{
		Path:  path,
		Fset:  fset,
		Files: astFiles,
		Info:  info,
	}, nil
}

func printDiag(d lint.Diagnostic) {
	pos := d.Pos
	if rel, err := filepath.Rel(".", pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		pos.Filename = rel
	}
	fmt.Fprintf(os.Stderr, "%s\n", lint.Diagnostic{Pos: pos, Analyzer: d.Analyzer, Message: d.Message})
}
