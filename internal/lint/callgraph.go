package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Module is the whole-program view behind the interprocedural analyzers:
// a conservative call graph over every package handed to RunAnalyzers,
// plus lazily computed per-function summaries (nondeterminism sources
// reached, seed-parameter obligations, dBm/mW return units). Static calls are resolved exactly through go/types;
// interface and function-value calls are over-approximated by signature,
// pruned to the caller's import closure. The graph only spans packages
// that were loaded for analysis — a single-package dcnlint run degrades
// to the intra-procedural checks, which is why the gate runs `./...`.
type Module struct {
	funcs map[string]*modFunc // types.Func.FullName() -> decl
	// order lists the functions sorted by id. Every whole-module walk
	// iterates it instead of ranging over funcs, so index candidate
	// order, summary chains and diagnostics are deterministic.
	order []*modFunc
	// sigIndex and methodIndex over-approximate indirect dispatch:
	// package-level functions by signature (function-value calls) and
	// methods by name|signature (interface calls). Test-file functions
	// are excluded — they cannot be callees of non-test code.
	sigIndex    map[string][]*modFunc
	methodIndex map[string][]*modFunc
	closures    map[*types.Package]map[string]bool

	src   map[*modFunc]*sourceSummary // lazily built by sourceSummaries
	units map[string]unit             // lazily built by unitSummaries
}

// modFunc is one function declaration in the module. FuncLit bodies are
// attributed to their enclosing declaration: a closure's calls count as
// the declaring function's calls.
type modFunc struct {
	id     string // types.Func.FullName(): stable across package variants
	name   string // display name for printed call paths (pkg.Func)
	decl   *ast.FuncDecl
	pkg    *Package
	fn     *types.Func
	inTest bool
	edges  []callEdge

	params map[types.Object]bool // lazily built by paramObjs
}

// callEdge is one call expression and its module-local callee
// candidates: exactly one for a statically resolved call, possibly many
// for an indirect (interface or function-value) call.
type callEdge struct {
	call     *ast.CallExpr
	callees  []*modFunc
	indirect bool
}

// newModule builds the call graph over the loaded packages.
func newModule(pkgs []*Package) *Module {
	m := &Module{
		funcs:       map[string]*modFunc{},
		sigIndex:    map[string][]*modFunc{},
		methodIndex: map[string][]*modFunc{},
		closures:    map[*types.Package]map[string]bool{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			inTest := strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go")
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				id := fn.FullName()
				if _, dup := m.funcs[id]; dup {
					continue
				}
				m.funcs[id] = &modFunc{
					id: id, name: displayName(fn), decl: fd,
					pkg: pkg, fn: fn, inTest: inTest,
				}
			}
		}
	}
	for id := range m.funcs {
		m.order = append(m.order, m.funcs[id])
	}
	sort.Slice(m.order, func(i, j int) bool { return m.order[i].id < m.order[j].id })
	for _, mf := range m.order {
		if mf.inTest {
			continue
		}
		sig := mf.fn.Type().(*types.Signature)
		if sig.Recv() == nil {
			k := sigKey(sig)
			m.sigIndex[k] = append(m.sigIndex[k], mf)
		} else {
			k := mf.fn.Name() + "|" + sigKey(sig)
			m.methodIndex[k] = append(m.methodIndex[k], mf)
		}
	}
	for _, mf := range m.order {
		m.buildEdges(mf)
	}
	return m
}

// funcOf resolves a declaration in a pass back to its module node.
func (m *Module) funcOf(info *types.Info, fd *ast.FuncDecl) *modFunc {
	if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
		return m.funcs[fn.FullName()]
	}
	return nil
}

// buildEdges records every call in the function body (closures
// included) that can reach module-local code.
func (m *Module) buildEdges(mf *modFunc) {
	info := mf.pkg.Info
	ast.Inspect(mf.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch obj := calleeObj(info, call).(type) {
		case *types.Func:
			sig, ok := obj.Type().(*types.Signature)
			if !ok {
				return true
			}
			if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
				m.addIndirect(mf, call, m.methodIndex[obj.Name()+"|"+sigKey(sig)])
			} else if callee := m.funcs[obj.FullName()]; callee != nil {
				mf.edges = append(mf.edges, callEdge{call: call, callees: []*modFunc{callee}})
			}
		case *types.Builtin, *types.TypeName:
			// append/len/... and conversions spelled as Ident calls.
		case nil:
			// No single object: a conversion to a type expression, a call
			// of a function-typed result, or a FuncLit invoked in place
			// (whose body is already attributed to this function).
			tv, ok := info.Types[call.Fun]
			if !ok || tv.IsType() || tv.Type == nil {
				return true
			}
			if _, isLit := ast.Unparen(call.Fun).(*ast.FuncLit); isLit {
				return true
			}
			if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
				m.addIndirect(mf, call, m.sigIndex[sigKey(sig)])
			}
		default:
			// A func-typed variable, field, or parameter.
			if sig, ok := obj.Type().Underlying().(*types.Signature); ok {
				m.addIndirect(mf, call, m.sigIndex[sigKey(sig)])
			}
		}
		return true
	})
}

// addIndirect records an over-approximated dispatch edge, pruned to
// candidates the caller's package could actually reach through imports.
func (m *Module) addIndirect(mf *modFunc, call *ast.CallExpr, cands []*modFunc) {
	if len(cands) == 0 {
		return
	}
	allowed := m.closure(mf.pkg.Types)
	var kept []*modFunc
	for _, c := range cands {
		if c.pkg == mf.pkg || allowed[c.pkg.Path] {
			kept = append(kept, c)
		}
	}
	if len(kept) > 0 {
		mf.edges = append(mf.edges, callEdge{call: call, callees: kept, indirect: true})
	}
}

// closure returns the set of import paths reachable from p, p included.
func (m *Module) closure(p *types.Package) map[string]bool {
	if s, ok := m.closures[p]; ok {
		return s
	}
	s := map[string]bool{}
	var walk func(q *types.Package)
	walk = func(q *types.Package) {
		if s[q.Path()] {
			return
		}
		s[q.Path()] = true
		for _, imp := range q.Imports() {
			walk(imp)
		}
	}
	walk(p)
	m.closures[p] = s
	return s
}

// sigKey renders a signature (receiver excluded) to a canonical string,
// the key indirect dispatch is over-approximated by.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	tuple := func(t *types.Tuple) {
		b.WriteByte('(')
		for i := 0; i < t.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(types.TypeString(t.At(i).Type(), nil))
		}
		b.WriteByte(')')
	}
	tuple(sig.Params())
	if sig.Variadic() {
		b.WriteString("...")
	}
	tuple(sig.Results())
	return b.String()
}

// displayName is the short form used in printed call paths: pkg.Func or
// pkg.Type.Method.
func displayName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// paramObjs is the set of parameter and receiver objects of the
// declaration, including the parameters of any closure inside it — the
// identifiers through which a caller-supplied value can enter the body.
func (mf *modFunc) paramObjs() map[types.Object]bool {
	if mf.params != nil {
		return mf.params
	}
	mf.params = map[types.Object]bool{}
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := mf.pkg.Info.Defs[name]; obj != nil {
					mf.params[obj] = true
				}
			}
		}
	}
	add(mf.decl.Recv)
	add(mf.decl.Type.Params)
	ast.Inspect(mf.decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			add(lit.Type.Params)
		}
		return true
	})
	return mf.params
}

// exprsMention reports whether any expression uses one of the objects.
func exprsMention(info *types.Info, exprs []ast.Expr, objs map[types.Object]bool) bool {
	for _, e := range exprs {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && objs[info.ObjectOf(id)] {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// internalSegment returns the path segment after the first "internal",
// or "" — the key both the real tree and fixture layouts scope by.
func internalSegment(path string) string {
	segs := strings.Split(path, "/")
	for i, s := range segs {
		if s == "internal" && i+1 < len(segs) {
			return segs[i+1]
		}
	}
	return ""
}

func isTopologyPkg(path string) bool { return internalSegment(path) == "topology" }

// isQuarantinedPkg reports whether the package is one of the
// deliberately nondeterministic internal packages (see nonSimInternal).
// Summaries never propagate facts out of them: internal/watchdog reading
// the wall clock is its charter, not a finding at its call sites.
func isQuarantinedPkg(path string) bool {
	seg := internalSegment(path)
	return seg != "" && nonSimInternal[seg]
}
