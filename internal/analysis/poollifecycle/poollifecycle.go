// Package poollifecycle defines an analyzer that checks the lifecycle of
// values drawn from a sync.Pool.
//
// The arena-reuse layer leans on pooling (the SimulateContext simulator pool,
// the preprocess build scratch): a Get whose value is not Put back on some
// return path silently degrades the pool to an allocator, and a value used
// after it was Put races with the next Get of the same object -- both defects
// that no test catches until the pool is contended.  The analyzer builds the
// control-flow graph of every function that calls (*sync.Pool).Get, and
// verifies along every path to every return that the value is Put back
// exactly once and never touched after the Put.  `defer pool.Put(v)`
// discharges the obligation on every path at once.
//
// The check is flow-sensitive but condition-blind (both arms of an `if` are
// explored); a site where the lifecycle is managed through a condition the
// analysis cannot see carries a //lint:pool-ok justification on the Get.
// Paths that end in panic carry no obligation: losing a pooled value on a
// panic is the documented sync.Pool failure mode, not a leak.
package poollifecycle

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"
	"golang.org/x/tools/go/types/typeutil"

	"memdep/internal/analysis/directive"
)

var Analyzer = &analysis.Analyzer{
	Name:     "poollifecycle",
	Doc:      "checks that sync.Pool values are Put back on every return path exactly once and never used after Put",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// Per-variable lifecycle state, a set of path facts merged by union.
const (
	bitAbsent uint8 = 1 << iota // Get not yet executed on this path
	bitLive                     // value drawn and not yet returned
	bitPut                      // value returned to the pool
	bitDefer                    // a deferred Put will return it at exit
)

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	dirs := directive.New(pass.Fset, pass.Files)

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.FuncDecl:
			body = n.Body
		case *ast.FuncLit:
			body = n.Body
		}
		if body != nil {
			checkFunc(pass, dirs, body)
		}
	})
	return nil, nil
}

// poolMethod reports whether the call invokes the named method of sync.Pool.
func poolMethod(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	if !ok || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Pool"
}

// getSite is one tracked (*sync.Pool).Get whose result is bound to a
// variable.
type getSite struct {
	obj  types.Object
	call *ast.CallExpr
}

// trackedGets finds the Get calls in the body whose results are bound to
// variables, excluding nested function literals (analyzed on their own) and
// sites justified with //lint:pool-ok.
func trackedGets(pass *analysis.Pass, dirs *directive.Index, body *ast.BlockStmt) []getSite {
	var sites []getSite
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		rhs := ast.Unparen(as.Rhs[0])
		if ta, ok := rhs.(*ast.TypeAssertExpr); ok {
			rhs = ast.Unparen(ta.X)
		}
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !poolMethod(pass, call, "Get") {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj == nil || dirs.Has(call.Pos(), "lint:pool-ok") {
			return true
		}
		sites = append(sites, getSite{obj: obj, call: call})
		return true
	})
	return sites
}

type state map[types.Object]uint8

func (s state) clone() state {
	c := make(state, len(s))
	for k, v := range s { //lint:deterministic map copy, order-independent
		c[k] = v
	}
	return c
}

// merge unions the path facts of two predecessor states; it reports whether
// the destination changed.
func (s state) merge(from state) bool {
	changed := false
	for k, v := range from { //lint:deterministic bitwise union, order-independent
		if s[k]|v != s[k] {
			s[k] |= v
			changed = true
		}
	}
	return changed
}

func checkFunc(pass *analysis.Pass, dirs *directive.Index, body *ast.BlockStmt) {
	sites := trackedGets(pass, dirs, body)
	if len(sites) == 0 {
		return
	}
	tracked := make(map[types.Object]*getSite, len(sites))
	for i := range sites {
		tracked[sites[i].obj] = &sites[i]
	}

	g := cfg.New(body, mayReturn)

	// Fixpoint over block entry states, then one reporting pass with the
	// stable states so diagnostics are not duplicated per worklist visit.
	in := make(map[*cfg.Block]state)
	entry := make(state, len(tracked))
	for obj := range tracked { //lint:deterministic state initialization, order-independent
		entry[obj] = bitAbsent
	}
	in[g.Blocks[0]] = entry
	work := []*cfg.Block{g.Blocks[0]}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		s := in[b].clone()
		tr := transfer{pass: pass, tracked: tracked, s: s}
		for _, n := range b.Nodes {
			tr.node(n)
		}
		for _, succ := range b.Succs {
			if in[succ] == nil {
				in[succ] = s.clone()
				work = append(work, succ)
			} else if in[succ].merge(s) {
				work = append(work, succ)
			}
		}
	}
	leaked := make(map[types.Object]bool)
	for _, b := range g.Blocks {
		if in[b] == nil {
			continue
		}
		tr := transfer{pass: pass, tracked: tracked, s: in[b].clone(), report: true, leaked: leaked}
		for _, n := range b.Nodes {
			tr.node(n)
		}
	}
}

// mayReturn treats panic and the conventional process-exit helpers as
// no-return calls, so paths into them carry no Put obligation.
func mayReturn(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name != "panic"
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		return !(name == "Exit" || name == "Fatal" || name == "Fatalf" || name == "Fatalln" || strings.HasPrefix(name, "Skip"))
	}
	return true
}

// transfer interprets one CFG node, updating the lifecycle state and (in the
// reporting pass) emitting diagnostics.
type transfer struct {
	pass    *analysis.Pass
	tracked map[types.Object]*getSite
	s       state
	report  bool
	leaked  map[types.Object]bool // sites already reported as not-Put, one diagnostic per Get
}

func (t *transfer) reportf(pos token.Pos, format string, args ...interface{}) {
	if t.report {
		t.pass.Reportf(pos, format, args...)
	}
}

func (t *transfer) node(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if t.isPut(n.Call) {
				t.put(n.Call, true)
				return false
			}
			return true
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				ast.Inspect(rhs, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						t.use(id)
					}
					_, isLit := m.(*ast.FuncLit)
					return !isLit
				})
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					ast.Inspect(lhs, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							t.use(id)
						}
						return true
					})
					continue
				}
				obj := t.pass.TypesInfo.ObjectOf(id)
				site, ok := t.tracked[obj]
				if !ok {
					continue
				}
				if i == 0 && len(n.Rhs) == 1 && containsCall(n.Rhs[0], site.call) {
					t.s[obj] = bitLive
				} else {
					// Rebinding the variable to something else ends the
					// analysis of the original value.
					delete(t.s, obj)
				}
			}
			return false
		case *ast.CallExpr:
			if t.isPut(n) {
				t.put(n, false)
				return false
			}
			return true
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				ast.Inspect(res, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						t.use(id)
					}
					_, isLit := m.(*ast.FuncLit)
					return !isLit
				})
			}
			t.checkReturn(n)
			return false
		case *ast.Ident:
			t.use(n)
		}
		return true
	})
}

func containsCall(e ast.Expr, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if n == ast.Node(call) {
			found = true
		}
		return !found
	})
	return found
}

func (t *transfer) isPut(call *ast.CallExpr) bool {
	return len(call.Args) == 1 && poolMethod(t.pass, call, "Put")
}

// put transitions the argument's state for pool.Put(v) / defer pool.Put(v).
func (t *transfer) put(call *ast.CallExpr, deferred bool) {
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	obj := t.pass.TypesInfo.ObjectOf(id)
	if _, tracked := t.tracked[obj]; !tracked {
		return
	}
	st, live := t.s[obj]
	if !live {
		return
	}
	if st&(bitPut|bitDefer) != 0 {
		t.reportf(call.Pos(), "%s may be returned to the pool twice", id.Name)
	}
	if deferred {
		t.s[obj] = bitDefer
	} else {
		t.s[obj] = bitPut
	}
}

// use flags reads of a value after it went back to the pool.
func (t *transfer) use(id *ast.Ident) {
	obj := t.pass.TypesInfo.ObjectOf(id)
	if _, tracked := t.tracked[obj]; !tracked {
		return
	}
	if t.s[obj]&bitPut != 0 {
		t.reportf(id.Pos(), "%s is used after being returned to the pool", id.Name)
	}
}

// checkReturn flags values still live (on at least one path) at a return.
func (t *transfer) checkReturn(ret *ast.ReturnStmt) {
	if !t.report {
		return
	}
	for obj, st := range t.s { //lint:deterministic reports keyed to stable Get positions, one per site
		if st&bitLive != 0 && !t.leaked[obj] {
			t.leaked[obj] = true
			site := t.tracked[obj]
			t.pass.Reportf(site.call.Pos(), "%s obtained from the pool is not returned to it on every return path; Put it before returning or annotate the Get with //lint:pool-ok <why>", obj.Name())
		}
	}
}
