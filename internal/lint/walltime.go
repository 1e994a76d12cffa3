package lint

import (
	"go/ast"
	"go/types"
)

// WallTime forbids reading the wall clock in internal/... packages.
//
// Simulated time is the only clock the simulation and tuning code may
// observe: a time.Now or time.Since in an evaluation path makes results
// depend on host load and breaks the parallel≡serial bit-identity pins.
// Wall-clock timing belongs to the cmd/ binaries (progress lines) and to
// _test.go files, neither of which this analyzer visits.
var WallTime = &Analyzer{
	Name: "walltime",
	Doc: "forbid time.Now/time.Since/time.Until in internal/... simulation packages; " +
		"wall clock is allowed only in cmd/ and _test.go files",
	Run: runWallTime,
}

var wallTimeForbidden = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

func runWallTime(pass *Pass) {
	if !pass.InternalPackage() {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true
			}
			if wallTimeForbidden[fn.Name()] {
				pass.Reportf(id.Pos(),
					"time.%s reads the wall clock inside an internal/ package; "+
						"simulation code must be a pure function of its inputs and seed", fn.Name())
			}
			return true
		})
	}
}
