// Package hotalloc defines an analyzer that flags heap allocations inside
// functions annotated //memdep:hotpath.
//
// The timing core's allocation discipline (DESIGN.md: a warmed simulation
// performs essentially zero heap allocations) is gated at runtime by
// cmd/memdep-perf's allocs/op ceilings.  That gate tells you THAT a regression
// happened; this analyzer tells you WHERE, at compile time: inside an
// annotated function it reports make/new calls, map, slice and escaping
// composite literals, function literals (closures), and appends that may grow
// their backing array.  append(x[:0], ...) -- the arena-reuse idiom -- is
// accepted, and any deliberate allocation (sizing paths, amortized arena
// growth) is justified in place with //lint:alloc-ok.
//
// Only directly annotated functions are checked; the marker does not
// propagate through calls.  Seed it on every function a profile shows on the
// per-instruction path.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"memdep/internal/analysis/directive"
)

var Analyzer = &analysis.Analyzer{
	Name:     "hotalloc",
	Doc:      "flags allocation sites (make, new, map/slice/escaping composite literals, closures, growing appends) inside //memdep:hotpath functions unless justified with //lint:alloc-ok",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	dirs := directive.New(pass.Fset, pass.Files)

	report := func(n ast.Node, format string, args ...interface{}) bool {
		if dirs.Has(n.Pos(), "lint:alloc-ok") {
			return true
		}
		pass.Reportf(n.Pos(), format+" on a //memdep:hotpath function; restructure to reuse arena storage or justify with //lint:alloc-ok", args...)
		return true
	}

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if !directive.HasMarker(fd.Doc, "memdep:hotpath") || fd.Body == nil {
			return
		}
		if strings.HasSuffix(pass.Fset.Position(fd.Pos()).Filename, "_test.go") {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				report(n, "function literal allocates a closure")
				return false
			case *ast.CallExpr:
				switch {
				case isBuiltin(pass, n, "make"):
					report(n, "make(%s) allocates", types.ExprString(n.Args[0]))
				case isBuiltin(pass, n, "new"):
					report(n, "new(%s) allocates", types.ExprString(n.Args[0]))
				case isBuiltin(pass, n, "append") && !isArenaReuse(n):
					report(n, "append to %s may grow its backing array", types.ExprString(n.Args[0]))
				}
			case *ast.UnaryExpr:
				if cl, ok := n.X.(*ast.CompositeLit); ok && n.Op == token.AND {
					report(n, "&%s composite literal escapes to the heap", types.ExprString(cl.Type))
					return false
				}
			case *ast.CompositeLit:
				t := pass.TypesInfo.TypeOf(n)
				if t == nil {
					return true
				}
				switch t.Underlying().(type) {
				case *types.Map:
					report(n, "map literal allocates")
				case *types.Slice:
					report(n, "slice literal allocates")
				}
			}
			return true
		})
	})
	return nil, nil
}

// isArenaReuse recognizes append(x[:0], ...): the append re-fills x's
// existing backing array, only growing when the input outsizes every previous
// one -- the arena idiom used throughout the simulator.
func isArenaReuse(call *ast.CallExpr) bool {
	se, ok := ast.Unparen(call.Args[0]).(*ast.SliceExpr)
	if !ok || se.High == nil {
		return false
	}
	lit, ok := se.High.(*ast.BasicLit)
	return ok && lit.Value == "0"
}

func isBuiltin(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}
