// Package fieldalign defines an analyzer that checks the field layout of
// structs annotated //memdep:soa.
//
// The simulator's hot structs are walked densely (per task, per load, per
// instruction); padding inflates their stride and wastes cache lines.  For
// every annotated struct the analyzer computes the size an optimal field
// order would occupy (largest alignment first, then largest size -- the
// classic fieldalignment packing) and reports the struct when its declared
// order wastes bytes, naming the suggested order.  It deliberately checks
// only annotated structs: reordering is an ABI-visible change (composite
// literals, reflection), so the rule is opt-in for the layouts the hot path
// actually strides over.
//
// When every field declares exactly one name, the diagnostic carries a
// suggested fix that reorders the declarations in place, each field keeping
// its doc and line comments; memdep-lint -fix applies it.
package fieldalign

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"memdep/internal/analysis/directive"
)

var Analyzer = &analysis.Analyzer{
	Name:     "fieldalign",
	Doc:      "flags //memdep:soa structs whose field order wastes padding bytes against the optimal layout",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.Preorder([]ast.Node{(*ast.GenDecl)(nil)}, func(n ast.Node) {
		gd := n.(*ast.GenDecl)
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			doc := ts.Doc
			if doc == nil && len(gd.Specs) == 1 {
				doc = gd.Doc
			}
			if !directive.HasMarker(doc, "memdep:soa") {
				continue
			}
			tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok || st.NumFields() == 0 {
				continue
			}
			cur := pass.TypesSizes.Sizeof(st)
			opt, order := optimalLayout(st, pass.TypesSizes)
			if opt < cur {
				diag := analysis.Diagnostic{
					Pos:     ts.Name.Pos(),
					Message: fmt.Sprintf("//memdep:soa struct %s occupies %d bytes; reordering its fields to (%s) would occupy %d bytes", ts.Name.Name, cur, strings.Join(order, ", "), opt),
				}
				if fix, ok := reorderFix(pass, ts, order); ok {
					diag.SuggestedFixes = []analysis.SuggestedFix{fix}
				}
				pass.Report(diag)
			}
		}
	})
	return nil, nil
}

// reorderFix builds a suggested fix that rewrites the struct's field list in
// the optimal order.  Each field's source snippet spans its doc comment
// through its trailing line comment, so annotations and //lint: escapes
// travel with the field.  The fix is withheld when a declaration carries
// multiple names or is embedded (reordering would have to split it) -- the
// diagnostic still fires, the rewrite is just manual there.
func reorderFix(pass *analysis.Pass, ts *ast.TypeSpec, order []string) (analysis.SuggestedFix, bool) {
	st, ok := ts.Type.(*ast.StructType)
	if !ok || st.Fields == nil || len(st.Fields.List) < 2 {
		return analysis.SuggestedFix{}, false
	}
	byName := make(map[string]*ast.Field, len(st.Fields.List))
	for _, f := range st.Fields.List {
		if len(f.Names) != 1 {
			return analysis.SuggestedFix{}, false
		}
		byName[f.Names[0].Name] = f
	}
	src, err := readFile(pass, pass.Fset.Position(ts.Pos()).Filename)
	if err != nil {
		return analysis.SuggestedFix{}, false
	}
	tf := pass.Fset.File(ts.Pos())
	span := func(f *ast.Field) (start, end token.Pos) {
		start, end = f.Pos(), f.End()
		if f.Doc != nil {
			start = f.Doc.Pos()
		}
		if f.Comment != nil {
			end = f.Comment.End()
		}
		return start, end
	}
	first, _ := span(st.Fields.List[0])
	_, last := span(st.Fields.List[len(st.Fields.List)-1])
	var out bytes.Buffer
	for i, name := range order {
		f := byName[name]
		if f == nil {
			return analysis.SuggestedFix{}, false
		}
		if i > 0 {
			out.WriteString("\n\t")
		}
		start, end := span(f)
		out.Write(src[tf.Offset(start):tf.Offset(end)])
	}
	return analysis.SuggestedFix{
		Message: "reorder fields to the optimal layout",
		TextEdits: []analysis.TextEdit{{
			Pos:     first,
			End:     last,
			NewText: out.Bytes(),
		}},
	}, true
}

// readFile uses the pass's file reader when the driver provides one (the
// unitchecker does) and falls back to the filesystem under test harnesses.
func readFile(pass *analysis.Pass, filename string) ([]byte, error) {
	if pass.ReadFile != nil {
		return pass.ReadFile(filename)
	}
	return os.ReadFile(filename)
}

// optimalLayout computes the size of the struct under the canonical packing
// order -- fields sorted by decreasing alignment, then decreasing size, then
// declaration order -- and the field names in that order.
func optimalLayout(st *types.Struct, sizes types.Sizes) (int64, []string) {
	n := st.NumFields()
	fields := make([]*types.Var, n)
	for i := range fields {
		fields[i] = st.Field(i)
	}
	sort.SliceStable(fields, func(i, j int) bool {
		ai, aj := sizes.Alignof(fields[i].Type()), sizes.Alignof(fields[j].Type())
		if ai != aj {
			return ai > aj
		}
		return sizes.Sizeof(fields[i].Type()) > sizes.Sizeof(fields[j].Type())
	})
	names := make([]string, n)
	fresh := make([]*types.Var, n)
	for i, f := range fields {
		names[i] = f.Name()
		fresh[i] = types.NewField(token.NoPos, f.Pkg(), f.Name(), f.Type(), f.Embedded())
	}
	return sizes.Sizeof(types.NewStruct(fresh, nil)), names
}
