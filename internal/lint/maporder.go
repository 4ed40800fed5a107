package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Maporder flags range loops over maps whose body does order-dependent
// work. Go randomizes map iteration order, so accumulating floats,
// growing an outer slice, or emitting events from inside a map range
// produces run-to-run different bits — exactly the hazard the medium
// avoids by keeping its active set in transmission-ID order.
// Order-independent bodies (delete, per-entry field writes, max/count
// scans) are not flagged.
//
// Flagged inside any map-range body (all packages, non-test files):
//   - floating-point accumulation (+=, -=, *=, /=, or x = x + ...) into
//     a variable declared outside the loop: float addition does not
//     commute in rounding, so the total depends on visit order;
//   - append to a slice declared outside the loop, unless the slice is
//     sorted immediately after the loop (the collect-then-sort idiom of
//     mergeWide) — otherwise the slice's element order is random;
//   - calls that emit simulation events or schedule callbacks (OnAir,
//     OffAir, Emit, Transmit, Schedule, At, After): delivery order
//     would differ between runs.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc: "flag order-dependent work (float accumulation, escaping appends, event emission) " +
		"inside range-over-map loops; sort keys first or collect-then-sort",
	Run: runMaporder,
}

// eventMethods are callee names that emit events or schedule callbacks —
// order of invocation is observable simulation behaviour.
var eventMethods = map[string]bool{
	"OnAir": true, "OffAir": true, "Emit": true, "Transmit": true,
	"TransmitShaped": true, "Schedule": true, "At": true, "After": true,
}

func runMaporder(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		// Walk statement lists so a range loop can see its trailing
		// statements (the collect-then-sort exemption).
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch b := n.(type) {
			case *ast.BlockStmt:
				list = b.List
			case *ast.CaseClause:
				list = b.Body
			case *ast.CommClause:
				list = b.Body
			default:
				return true
			}
			for i, st := range list {
				if lab, ok := st.(*ast.LabeledStmt); ok {
					st = lab.Stmt
				}
				rng, ok := st.(*ast.RangeStmt)
				if !ok || !isMapRange(pass.TypesInfo, rng) {
					continue
				}
				checkMapRangeBody(pass, rng, list[i+1:])
			}
			return true
		})
	}
	return nil
}

func isMapRange(info *types.Info, rng *ast.RangeStmt) bool {
	tv, ok := info.Types[rng.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func checkMapRangeBody(pass *Pass, rng *ast.RangeStmt, after []ast.Stmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkAssign(pass, rng, n, after)
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && eventMethods[sel.Sel.Name] {
				pass.Reportf(n.Pos(),
					"%s inside range over map: event/callback order follows the randomized map order; iterate sorted keys instead",
					sel.Sel.Name)
			}
		}
		return true
	})
}

func checkAssign(pass *Pass, rng *ast.RangeStmt, as *ast.AssignStmt, after []ast.Stmt) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		lhs := as.Lhs[0]
		if isFloatExpr(pass.TypesInfo, lhs) && !lhsLocalTo(pass.TypesInfo, lhs, rng) {
			pass.Reportf(as.Pos(),
				"floating-point accumulation into %s inside range over map: rounding makes the total depend on the randomized iteration order; sum in sorted-key order",
				exprString(lhs))
		}
	case token.ASSIGN:
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			rhs := as.Rhs[i]
			// s = append(s, ...) with s declared outside the loop.
			if isAppendTo(pass.TypesInfo, rhs, lhs) && !lhsLocalTo(pass.TypesInfo, lhs, rng) {
				if sortedAfter(pass.TypesInfo, lhs, after) {
					continue
				}
				pass.Reportf(as.Pos(),
					"append to %s inside range over map: element order follows the randomized map order; sort the result (or the keys) deterministically",
					exprString(lhs))
				continue
			}
			// x = x + delta float self-accumulation.
			if bin, ok := ast.Unparen(rhs).(*ast.BinaryExpr); ok &&
				(bin.Op == token.ADD || bin.Op == token.SUB) &&
				isFloatExpr(pass.TypesInfo, lhs) &&
				sameRoot(lhs, bin.X) && !lhsLocalTo(pass.TypesInfo, lhs, rng) {
				pass.Reportf(as.Pos(),
					"floating-point accumulation into %s inside range over map: rounding makes the total depend on the randomized iteration order; sum in sorted-key order",
					exprString(lhs))
			}
		}
	}
}

// isFloatExpr reports whether the expression's (possibly named) type has
// a floating-point underlying kind — float64, phy.DBm, ...
func isFloatExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// lhsLocalTo reports whether the target's root variable is declared
// inside the loop — per-iteration state cannot leak iteration order out.
func lhsLocalTo(info *types.Info, lhs ast.Expr, rng *ast.RangeStmt) bool {
	id := rootIdent(lhs)
	return id != nil && declaredWithin(info, id, rng)
}

// isAppendTo reports whether rhs is append(lhs, ...).
func isAppendTo(info *types.Info, rhs, lhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	return sameRoot(lhs, call.Args[0])
}

// sameRoot reports whether two expressions share the same leftmost
// identifier object-wise (syntactic match on the root name is enough for
// the accumulation idioms this analyzer targets).
func sameRoot(a, b ast.Expr) bool {
	ra, rb := rootIdent(a), rootIdent(b)
	return ra != nil && rb != nil && ra.Name == rb.Name
}

// sortedAfter reports whether one of the statements following the loop
// (in the same block) passes the append target to a sort function — the
// sanctioned collect-then-sort idiom: the map's random order is erased
// before anyone observes it.
func sortedAfter(info *types.Info, lhs ast.Expr, after []ast.Stmt) bool {
	root := rootIdent(lhs)
	if root == nil {
		return false
	}
	for _, st := range after {
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			obj := calleeObj(info, call)
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			pkg := obj.Pkg().Path()
			if pkg != "sort" && pkg != "slices" {
				return true
			}
			if arg := rootIdent(call.Args[0]); arg != nil && arg.Name == root.Name {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// exprString renders a (small) expression for diagnostics.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	}
	return "expression"
}
