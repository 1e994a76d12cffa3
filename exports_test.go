package micrograd

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// exportedButUnused lists the exported names under internal/ that no
// non-test file references yet, and the struct fields that no non-test file
// reads or, if exported, writes, each with the reason it is kept.
var exportedButUnused = map[string]string{
	"cpusim.Config.Name":                      "rendered into `SimPlatform.EvalIdentity` by `%+v`",
	"multicore.CoRunPlatform.CoreSimulations": "pins core sharing in the multicore tests; mgserve's /stats is to report it",
	"multicore.CoRunPlatform.SharedCores":     "pins core sharing in the multicore tests; mgserve's /stats is to report it",
	"multicore.CoRunSpec.OffsetCycles":        "benchmark/replay.go reads it; it goes with the replay (ROADMAP item 1)",
	"powersim.Coefficients.Name":              "rendered into `SimPlatform.EvalIdentity` by `%+v`",
}

// TestEveryInternalExportIsUsed keeps API and code that only tests call out
// of internal/: it type-checks the non-test files of every package of this
// module and of the benchmark module, and fails on any package-level name,
// exported method of an exported type or unexported method of any type,
// declared under internal/ that none of those files references. A method
// also counts as used when a referenced interface method has its name and
// signature, and String and Error always count, since the standard library
// calls them through interfaces. A name only a test needs belongs in that
// package's _test.go files.
//
// It also fails on any exported field of a package-level struct type under
// internal/ that none of those files writes, since a setting nothing sets is
// a constant. A write is a composite-literal key, an unkeyed composite
// literal, the target of an assignment or of ++/-- (through index
// expressions) or an address-of; a field with a json tag counts as written
// by decoding.
//
// And it fails on any field, exported or not, of a package-level struct type
// under internal/ that none of those files reads, since state nothing reads
// is dead. A read is any use but a composite-literal key or the target of an
// assignment or of ++/--; a field with a json tag counts as read by
// encoding, and an embedded field as read through its promoted names.
func TestEveryInternalExportIsUsed(t *testing.T) {
	l := &sourceLoader{
		fset:         token.NewFileSet(),
		pkgs:         map[string]*types.Package{},
		uses:         map[types.Object]bool{},
		writes:       map[types.Object]bool{},
		ifaceMethods: map[string][]*types.Signature{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)

	var paths []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		p, err := build.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		if len(p.GoFiles) > 0 {
			paths = append(paths, l.importPath(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if _, err := l.load(path); err != nil {
			t.Fatal(err)
		}
	}

	var unused []string
	for _, path := range paths {
		if !strings.HasPrefix(path, "micrograd/internal/") {
			continue
		}
		pkg := l.pkgs[path]
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			qualified := pkg.Name() + "." + name
			if !l.uses[obj] {
				unused = append(unused, qualified)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					f := st.Field(i)
					if reflect.StructTag(st.Tag(i)).Get("json") != "" {
						continue
					}
					unwritten := tn.Exported() && f.Exported() && !l.writes[f]
					unread := !l.uses[f] && !f.Embedded()
					if unwritten || unread {
						unused = append(unused, qualified+"."+f.Name())
					}
				}
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for m := range named.Methods() {
				// An exported method of an unexported type may satisfy an
				// interface only the standard library calls.
				if (tn.Exported() || !m.Exported()) && !l.uses[m] && !l.calledThroughInterface(m) {
					unused = append(unused, qualified+"."+m.Name())
				}
			}
		}
	}

	for _, name := range unused {
		if _, ok := exportedButUnused[name]; !ok {
			t.Errorf("%s is declared under internal/ but no non-test file uses it (or, for a field, reads it or, if exported, writes it): delete it, unexport it, or move it into its package's tests", name)
		}
	}
	for name := range exportedButUnused {
		if !slices.Contains(unused, name) {
			t.Errorf("allowlisted %s is used now or gone: drop it from exportedButUnused", name)
		}
	}
}

// sourceLoader type-checks this tree's packages from their non-test files,
// sharing one types.Package per import path so that a use anywhere resolves
// to the object its package declares. The standard library comes from the
// source importer.
type sourceLoader struct {
	fset         *token.FileSet
	std          types.ImporterFrom
	pkgs         map[string]*types.Package
	uses         map[types.Object]bool         // objects declared here that a non-test file references; for a field, reads
	writes       map[types.Object]bool         // struct fields that a non-test file writes
	ifaceMethods map[string][]*types.Signature // referenced interface methods by name
}

const modulePath = "micrograd"

func (l *sourceLoader) importPath(dir string) string {
	if dir == "." {
		return modulePath
	}
	return modulePath + "/" + filepath.ToSlash(dir)
}

func (l *sourceLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, ".", 0)
}

func (l *sourceLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == modulePath || strings.HasPrefix(path, modulePath+"/") {
		return l.load(path)
	}
	return l.std.ImportFrom(path, dir, mode)
}

// load type-checks the package at a module import path: micrograd/x lives
// in ./x, and micrograd/benchmark/x, the benchmark module's packages, in
// ./benchmark/x, since that module replaces micrograd with this tree.
func (l *sourceLoader) load(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir := "."
	if path != modulePath {
		dir = filepath.FromSlash(strings.TrimPrefix(path, modulePath+"/"))
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), src, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	notRead := map[*ast.Ident]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			l.recordWrites(info, n, notRead)
			return true
		})
	}
	for id, obj := range info.Uses {
		if !notRead[id] {
			l.use(obj)
		}
	}
	return pkg, nil
}

// recordWrites marks the struct fields node n writes, and adds to notRead
// the identifiers in n that name a field without reading it: composite-literal
// keys and assignment and ++/-- targets.
func (l *sourceLoader) recordWrites(info *types.Info, n ast.Node, notRead map[*ast.Ident]bool) {
	switch n := n.(type) {
	case *ast.CompositeLit:
		st, ok := info.Types[n].Type.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i, elt := range n.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.Ident); ok && l.writeField(info.Uses[key]) {
					notRead[key] = true
				}
			} else {
				l.writeField(st.Field(i))
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if id := l.writeTarget(info, lhs); id != nil {
				notRead[id] = true
			}
		}
	case *ast.IncDecStmt:
		if id := l.writeTarget(info, n.X); id != nil {
			notRead[id] = true
		}
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			l.writeTarget(info, n.X)
		}
	}
}

// writeTarget marks the field that assigning to, or taking the address of,
// e writes: the selected field, through any index expressions. It returns
// the identifier naming that field, or nil if e writes none.
func (l *sourceLoader) writeTarget(info *types.Info, e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if l.writeField(info.Uses[x.Sel]) {
				return x.Sel
			}
			return nil
		default:
			return nil
		}
	}
}

// writeField marks obj written and reports whether it is a struct field.
func (l *sourceLoader) writeField(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if ok && v.IsField() {
		l.writes[v.Origin()] = true
	}
	return ok && v.IsField()
}

func (l *sourceLoader) use(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		if sig := o.Signature(); sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			l.ifaceMethods[o.Name()] = append(l.ifaceMethods[o.Name()], sig)
		}
		l.uses[o.Origin()] = true
	case *types.Var:
		l.uses[o.Origin()] = true
	default:
		l.uses[obj] = true
	}
}

// calledThroughInterface reports whether m may be called through a
// referenced interface method: one with m's name and signature.
func (l *sourceLoader) calledThroughInterface(m *types.Func) bool {
	if m.Name() == "String" || m.Name() == "Error" {
		return true
	}
	return slices.ContainsFunc(l.ifaceMethods[m.Name()], func(sig *types.Signature) bool {
		return types.Identical(sig, m.Signature())
	})
}
