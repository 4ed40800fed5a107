package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Snapfreeze enforces topology.Snapshot immutability, the invariant the
// whole spatial tier leans on: snapshots are shared across cells and
// workers without copies, and the certified far-pair loss floors are
// only sound if nothing mutates a published snapshot. Two rules:
//
//   - Inside internal/topology, Snapshot fields may be written only in
//     constructors (functions whose results include *Snapshot); any
//     other function writing a field — directly or through a local
//     alias of a field slice — mutates a published snapshot.
//   - Everywhere, the CSR row views returned by NearRow are frozen:
//     writing an element, using the row as a copy destination, or
//     appending to it (which may write in place) is flagged, through
//     bare and re-sliced aliases. Copying OUT of a row and Networks()
//     (a deep copy) stay legal.
//
// Test files are exempt: oracle tests rebuild and perturb snapshots
// deliberately.
var Snapfreeze = &Analyzer{
	Name: "snapfreeze",
	Doc: "forbid writes to topology.Snapshot fields outside constructors and " +
		"writes through NearRow CSR row aliases; published snapshots are immutable",
	Run: runSnapfreeze,
}

func runSnapfreeze(pass *Pass) error {
	inTopo := isTopologyPkg(pass.Path)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if inTopo {
				if returnsSnapshot(pass.TypesInfo, fd) {
					continue // constructor: field writes are legal
				}
				checkSnapshotWrites(pass, fd)
			}
			checkRowAliases(pass, fd)
		}
	}
	return nil
}

// returnsSnapshot reports whether any declared result is a (pointer to)
// Snapshot of the package under analysis.
func returnsSnapshot(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil {
		return false
	}
	for _, field := range fd.Type.Results.List {
		tv, ok := info.Types[field.Type]
		if !ok || tv.Type == nil {
			continue
		}
		if isSnapshotType(tv.Type) {
			return true
		}
	}
	return false
}

func isSnapshotType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Snapshot" && n.Obj().Pkg() != nil &&
		isTopologyPkg(n.Obj().Pkg().Path())
}

// checkSnapshotWrites flags non-constructor writes to Snapshot fields
// inside the topology package: s.field = ..., s.field[i] = ...,
// s.n++, compound assignments, and writes through local aliases of
// field slices.
func checkSnapshotWrites(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	aliases := map[types.Object]bool{}
	// isFrozen reports whether the lvalue bottoms out in a Snapshot
	// field or a tracked alias of one.
	var isFrozen func(e ast.Expr) bool
	isFrozen = func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return aliases[info.ObjectOf(x)]
		case *ast.SelectorExpr:
			if tv, ok := info.Types[x.X]; ok && tv.Type != nil && isSnapshotType(tv.Type) {
				return true
			}
			return isFrozen(x.X)
		case *ast.IndexExpr:
			return isFrozen(x.X)
		case *ast.SliceExpr:
			return isFrozen(x.X)
		case *ast.StarExpr:
			return isFrozen(x.X)
		}
		return false
	}
	report := func(pos token.Pos) {
		pass.reportSink(pos, "Snapshot", nil,
			"write to topology.Snapshot field outside a constructor mutates a published snapshot; snapshots are immutable once returned — build a new one")
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if isFrozen(lhs) {
					report(lhs.Pos())
					continue
				}
				// Track local aliases of snapshot field slices so
				// `rows := s.nearLoss; rows[0] = x` is still a write.
				// Only slice-typed values alias the underlying array — a
				// scalar copied out of a field is just a value.
				if (n.Tok == token.DEFINE || n.Tok == token.ASSIGN) &&
					i < len(n.Rhs) && len(n.Lhs) == len(n.Rhs) {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" &&
						isFrozen(n.Rhs[i]) && isSliceExpr(info, n.Rhs[i]) {
						if obj := info.ObjectOf(id); obj != nil {
							aliases[obj] = true
						}
					}
				}
			}
		case *ast.IncDecStmt:
			if isFrozen(n.X) {
				report(n.X.Pos())
			}
		case *ast.CallExpr:
			if name := builtinName(info, n); (name == "append" || name == "copy") &&
				len(n.Args) > 0 && isFrozen(n.Args[0]) {
				report(n.Pos())
			}
		}
		return true
	})
}

// isSliceExpr reports whether the expression's type is a slice.
func isSliceExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isSlice := tv.Type.Underlying().(*types.Slice)
	return isSlice
}

// builtinName returns the name of a builtin callee, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	if b, ok := calleeObj(info, call).(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// checkRowAliases flags writes through the frozen views NearRow returns,
// in any package: index writes, re-sliced aliases, append, and copy
// with the row as destination.
func checkRowAliases(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	rows := map[types.Object]bool{}
	// rooted reports whether the expression bottoms out in a tracked
	// row variable (through indexing, slicing, parens).
	var rooted func(e ast.Expr) bool
	rooted = func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return rows[info.ObjectOf(x)]
		case *ast.IndexExpr:
			return rooted(x.X)
		case *ast.SliceExpr:
			return rooted(x.X)
		}
		return false
	}
	report := func(pos token.Pos, what string) {
		pass.reportSink(pos, "NearRow", nil,
			"%s a NearRow CSR row mutates the shared topology.Snapshot it views; copy the row before modifying it", what)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// New rows: ids, loss := s.NearRow(i). Aliases: a := ids,
			// sub := loss[1:].
			if len(n.Rhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok && isNearRowCall(info, call) {
					for _, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
							if obj := info.ObjectOf(id); obj != nil {
								rows[obj] = true
							}
						}
					}
					return true
				}
			}
			for i, lhs := range n.Lhs {
				if rooted(lhs) {
					report(lhs.Pos(), "writing into")
					continue
				}
				// Aliases must be slice-typed: an element read out of a
				// row (`v := loss[i]`) is a value, not a view.
				if len(n.Lhs) == len(n.Rhs) && i < len(n.Rhs) &&
					rooted(n.Rhs[i]) && isSliceExpr(info, n.Rhs[i]) {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						if obj := info.ObjectOf(id); obj != nil {
							rows[obj] = true
						}
					}
				}
			}
		case *ast.IncDecStmt:
			if rooted(n.X) {
				report(n.X.Pos(), "writing into")
			}
		case *ast.CallExpr:
			switch builtinName(info, n) {
			case "append":
				if len(n.Args) > 0 && rooted(n.Args[0]) {
					report(n.Pos(), "append to")
				}
			case "copy":
				if len(n.Args) > 0 && rooted(n.Args[0]) {
					report(n.Pos(), "copy into")
				}
			}
		}
		return true
	})
}

// isNearRowCall matches any method named NearRow — the Snapshot
// accessor and the medium.LossProvider interface it satisfies.
func isNearRowCall(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := calleeObj(info, call).(*types.Func)
	if !ok || fn.Name() != "NearRow" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}
