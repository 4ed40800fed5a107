package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Resetcomplete enforces constructor/Reset parity. A type that can be
// reset in place — today dcn.Adjustor, whose Reset re-runs the
// Initializing Phase when a failed node rejoins — must come out of Reset
// without state left over from before it. For every type that has both a
// constructor (a package-level New* function returning it) and a Reset
// method, every field the constructor sets must also be assigned
// somewhere in the reset path (including methods of the same type the
// reset calls, and wholesale *r = T{...} rewrites) — or carry an
// explicit annotation:
//
//	kernel *sim.Kernel //lint:keep <why the field survives Reset>
//
// A kept field is deliberately retained across Reset (identity wiring,
// configuration); the annotation makes that decision reviewable instead
// of implicit.
var Resetcomplete = &Analyzer{
	Name: "resetcomplete",
	Doc: "every field a constructor sets must be reassigned in the type's Reset " +
		"path or carry a //lint:keep annotation; a reset object must not keep stale state",
	Run: runResetcomplete,
}

func runResetcomplete(pass *Pass) error {
	types_ := collectResetTypes(pass)
	for _, rt := range types_ {
		if len(rt.ctors) == 0 || len(rt.resets) == 0 {
			continue
		}
		ctorSet := map[string]bool{}
		for _, ctor := range rt.ctors {
			fieldsSetInCtor(pass, rt, ctor, ctorSet)
		}
		resetSet := map[string]bool{}
		for _, reset := range rt.resets {
			visited := map[*ast.FuncDecl]bool{}
			fieldsSetInReset(pass, rt, reset, resetSet, visited)
		}
		var missing []string
		for f := range ctorSet {
			if !resetSet[f] && !rt.keep[f] {
				missing = append(missing, f)
			}
		}
		sort.Strings(missing)
		for _, f := range missing {
			pos := rt.resets[0].Pos()
			if n, ok := rt.fieldPos[f]; ok {
				pos = n.Pos()
			}
			pass.Reportf(pos,
				"field %s.%s is set by constructor %s but never reassigned in %s; reset it there or annotate the field //lint:keep <reason>",
				rt.name, f, rt.ctors[0].Name.Name, rt.resets[0].Name.Name)
		}
	}
	return nil
}

// resetType gathers everything the check needs about one struct type.
type resetType struct {
	name     string
	named    *types.Named
	strct    *ast.StructType
	ctors    []*ast.FuncDecl
	resets   []*ast.FuncDecl
	methods  map[string]*ast.FuncDecl
	keep     map[string]bool
	fieldPos map[string]ast.Node
}

func collectResetTypes(pass *Pass) map[string]*resetType {
	out := map[string]*resetType{}
	get := func(name string) *resetType {
		rt := out[name]
		if rt == nil {
			rt = &resetType{
				name:     name,
				methods:  map[string]*ast.FuncDecl{},
				keep:     map[string]bool{},
				fieldPos: map[string]ast.Node{},
			}
			out[name] = rt
		}
		return rt
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					rt := get(ts.Name.Name)
					rt.strct = st
					if obj, ok := pass.TypesInfo.Defs[ts.Name]; ok {
						rt.named, _ = obj.Type().(*types.Named)
					}
					for _, fld := range st.Fields.List {
						keep := commentHasKeep(fld.Doc) || commentHasKeep(fld.Comment)
						for _, nm := range fld.Names {
							rt.fieldPos[nm.Name] = nm
							if keep {
								rt.keep[nm.Name] = true
							}
						}
					}
				}
			case *ast.FuncDecl:
				if d.Recv != nil && len(d.Recv.List) == 1 {
					if tn := recvTypeName(d.Recv.List[0].Type); tn != "" {
						rt := get(tn)
						rt.methods[d.Name.Name] = d
						if d.Name.Name == "Reset" {
							rt.resets = append(rt.resets, d)
						}
					}
					continue
				}
				if !strings.HasPrefix(d.Name.Name, "New") || d.Type.Results == nil {
					continue
				}
				for _, res := range d.Type.Results.List {
					if tn := recvTypeName(res.Type); tn != "" {
						get(tn).ctors = append(get(tn).ctors, d)
					}
				}
			}
		}
	}
	return out
}

func commentHasKeep(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.HasPrefix(c.Text, "//lint:keep") {
			return true
		}
	}
	return false
}

// recvTypeName unwraps *T / T to the bare local type name, or "".
func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}

// isTypeExprOf reports whether the expression's static type is T or *T.
func isTypeExprOf(pass *Pass, e ast.Expr, rt *resetType) bool {
	if rt.named == nil {
		return false
	}
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj() == rt.named.Obj()
}

// fieldsSetInCtor records the fields the constructor sets: keys of T
// composite literals (positional literals set the leading fields), and
// direct x.f = assignments on a T-typed value.
func fieldsSetInCtor(pass *Pass, rt *resetType, fn *ast.FuncDecl, set map[string]bool) {
	if fn.Body == nil {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if !isTypeExprOf(pass, n, rt) {
				return true
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						set[id.Name] = true
					}
				} else {
					// Positional literal: element i initialises field i.
					markFieldIndex(rt, i, set)
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				markFieldAssign(pass, rt, lhs, set)
			}
		}
		return true
	})
}

// markFieldIndex marks the i-th declared field of the struct.
func markFieldIndex(rt *resetType, i int, set map[string]bool) {
	if rt.strct == nil {
		return
	}
	idx := 0
	for _, fld := range rt.strct.Fields.List {
		n := len(fld.Names)
		if n == 0 {
			n = 1 // embedded
		}
		for j := 0; j < n; j++ {
			if idx == i {
				if len(fld.Names) > 0 {
					set[fld.Names[j].Name] = true
				}
				return
			}
			idx++
		}
	}
}

// markFieldAssign marks lhs when it is a field selector on a T-typed
// value (x.f = ...), or every field on a wholesale *x = T{...} rewrite.
func markFieldAssign(pass *Pass, rt *resetType, lhs ast.Expr, set map[string]bool) {
	switch l := lhs.(type) {
	case *ast.SelectorExpr:
		if isTypeExprOf(pass, l.X, rt) {
			set[l.Sel.Name] = true
		}
	case *ast.StarExpr:
		// *r = T{...} (or *r = other): the whole struct is rewritten;
		// every field, named or not, is reset.
		if isTypeExprOf(pass, l.X, rt) {
			markAllFields(rt, set)
		}
	}
}

func markAllFields(rt *resetType, set map[string]bool) {
	if rt.strct == nil {
		return
	}
	for _, fld := range rt.strct.Fields.List {
		for _, nm := range fld.Names {
			set[nm.Name] = true
		}
	}
}

// fieldsSetInReset records every field the reset path assigns: direct
// assignments, delete/clear on field maps, wholesale rewrites, and —
// transitively — any method of the same type the reset calls (the
// Reset -> Start -> stopTimers chains of the Adjustor). Assignments
// inside nested function literals count too: a reset that re-arms a
// ticker whose callback maintains the field owns that field's lifecycle.
func fieldsSetInReset(pass *Pass, rt *resetType, fn *ast.FuncDecl, set map[string]bool, visited map[*ast.FuncDecl]bool) {
	if fn == nil || fn.Body == nil || visited[fn] {
		return
	}
	visited[fn] = true
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				markFieldAssign(pass, rt, lhs, set)
			}
		case *ast.IncDecStmt:
			markFieldAssign(pass, rt, n.X, set)
		case *ast.CallExpr:
			// delete(x.f, k) / clear(x.f) empty a field in place.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok &&
					(b.Name() == "delete" || b.Name() == "clear") && len(n.Args) > 0 {
					if sel, ok := ast.Unparen(n.Args[0]).(*ast.SelectorExpr); ok &&
						isTypeExprOf(pass, sel.X, rt) {
						set[sel.Sel.Name] = true
					}
				}
				return true
			}
			// Method call on the same type: follow it.
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok {
					if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
						if isRecvOf(sig.Recv().Type(), rt) {
							fieldsSetInReset(pass, rt, rt.methods[obj.Name()], set, visited)
						}
					}
				}
			}
		}
		return true
	})
}

func isRecvOf(t types.Type, rt *resetType) bool {
	if rt.named == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj() == rt.named.Obj()
}
