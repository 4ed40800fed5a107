package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Source summaries: which nondeterminism sinks a module-local helper
// reaches, propagated to fixed point over the call graph. Summaries are
// only built for functions that are neither simulation code (a source
// there is flagged directly in the body by the intra-procedural pass, so
// callers need no second report) nor quarantined (internal/watchdog and
// friends use the wall clock by charter) nor test-only. The effect: a
// sim-package call into a helper chain is flagged once, at the sim call
// site, with the full path to the sink printed.

// srcKind distinguishes the sink families so each analyzer reports only
// its own: detsource owns the wall clock, the global math/rand state and
// unseedable rand.New; seedtaint owns unseeded source constructors.
type srcKind int

const (
	srcWallClock srcKind = iota
	srcGlobalRand
	srcUnseededNew
	srcUnseededCtor
)

// srcFact is one sink a function definitely reaches, however deep.
type srcFact struct {
	kind  srcKind
	sink  string    // e.g. "time.Now", "rand.Float64", "rand.NewSource"
	pos   token.Pos // where the sink occurs (tail of the printed path)
	chain []string  // display names of the intermediate calls below the
	// summarized function, outermost first
}

// seedNeed records that a helper constructs an RNG from caller-supplied
// input: legal in itself, but every call site must pass seed-derived
// arguments. Resolved (satisfied, lifted, or turned into a violation) at
// each call site during propagation and reporting.
type seedNeed struct {
	sink  string
	pos   token.Pos
	chain []string
}

type sourceSummary struct {
	facts    []srcFact
	needSeed *seedNeed
}

func hasFact(facts []srcFact, kind srcKind, sink string) bool {
	for _, f := range facts {
		if f.kind == kind && f.sink == sink {
			return true
		}
	}
	return false
}

// summaryCapable reports whether facts may propagate through mf: a
// module-local helper outside simulation code, the quarantine, and test
// files.
func summaryCapable(mf *modFunc) bool {
	return !mf.inTest && !isSimPackage(mf.pkg.Path) && !isQuarantinedPkg(mf.pkg.Path)
}

// sourceSummaries computes the fixed point of source facts over the
// call graph.
func (m *Module) sourceSummaries() map[*modFunc]*sourceSummary {
	if m.src != nil {
		return m.src
	}
	m.src = map[*modFunc]*sourceSummary{}
	for _, mf := range m.order {
		if summaryCapable(mf) {
			facts, need := directFacts(mf)
			m.src[mf] = &sourceSummary{facts: facts, needSeed: need}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, mf := range m.order {
			s := m.src[mf]
			if s == nil {
				continue
			}
			for _, e := range mf.edges {
				for _, callee := range e.callees {
					cs := m.src[callee]
					if cs == nil || callee == mf {
						continue
					}
					for _, f := range cs.facts {
						if !hasFact(s.facts, f.kind, f.sink) {
							nf := f
							nf.chain = prepend(callee.name, f.chain)
							s.facts = append(s.facts, nf)
							changed = true
						}
					}
					if cs.needSeed == nil {
						continue
					}
					switch {
					case anySeedDerived(e.call.Args):
						// Satisfied at this call site.
					case exprsMention(mf.pkg.Info, e.call.Args, mf.paramObjs()):
						// The obligation lifts to mf's own callers.
						if s.needSeed == nil {
							s.needSeed = &seedNeed{
								sink:  cs.needSeed.sink,
								pos:   cs.needSeed.pos,
								chain: prepend(callee.name, cs.needSeed.chain),
							}
							changed = true
						}
					default:
						// Neither seed-derived nor parameter-fed: the
						// generator is definitively unseeded inside the
						// helper chain.
						if !hasFact(s.facts, srcUnseededCtor, cs.needSeed.sink) {
							s.facts = append(s.facts, srcFact{
								kind:  srcUnseededCtor,
								sink:  cs.needSeed.sink,
								pos:   cs.needSeed.pos,
								chain: prepend(callee.name, cs.needSeed.chain),
							})
							changed = true
						}
					}
				}
			}
		}
	}
	return m.src
}

func prepend(name string, chain []string) []string {
	out := make([]string, 0, len(chain)+1)
	out = append(out, name)
	return append(out, chain...)
}

// directFacts scans one helper body for the sinks the intra-procedural
// analyzers flag in simulation code.
func directFacts(mf *modFunc) (facts []srcFact, need *seedNeed) {
	info := mf.pkg.Info
	add := func(kind srcKind, sink string, pos token.Pos) {
		if !hasFact(facts, kind, sink) {
			facts = append(facts, srcFact{kind: kind, sink: sink, pos: pos})
		}
	}
	ast.Inspect(mf.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			obj := calleeObj(info, n)
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch {
			case obj.Pkg().Path() == "time" && wallClockFuncs[obj.Name()]:
				add(srcWallClock, "time."+obj.Name(), n.Pos())
			case isRandPkg(obj.Pkg().Path()) && obj.Name() == "New":
				// rand.New over a pass-through source parameter is the
				// caller's problem (checked where the source is built);
				// over anything else non-inline-seeded it is a sink.
				if !seededCall(info, n) &&
					!exprsMention(info, n.Args, mf.paramObjs()) {
					add(srcUnseededNew, "rand.New", n.Pos())
				}
			case isRandPkg(obj.Pkg().Path()) && seededSourceCtors[obj.Name()],
				obj.Name() == "NewRNG" && isSimKernelPkg(obj.Pkg().Path()):
				sink := "rand." + obj.Name()
				if obj.Name() == "NewRNG" {
					sink = "sim.NewRNG"
				}
				switch {
				case anySeedDerived(n.Args):
					// Visibly seeded: clean.
				case exprsMention(info, n.Args, mf.paramObjs()):
					if need == nil {
						need = &seedNeed{sink: sink, pos: n.Pos()}
					}
				default:
					add(srcUnseededCtor, sink, n.Pos())
				}
			}
		case *ast.SelectorExpr:
			// The global math/rand draws, same condition as detsource.
			fn, ok := info.Uses[n.Sel].(*types.Func)
			if ok && fn.Pkg() != nil && isRandPkg(fn.Pkg().Path()) &&
				!seededRandCtors[fn.Name()] && fn.Exported() &&
				fn.Type().(*types.Signature).Recv() == nil {
				add(srcGlobalRand, "rand."+fn.Name(), n.Pos())
			}
		}
		return true
	})
	return facts, need
}

// pathString renders the printed call path of a finding: the callee at
// the flagged call site, the chain below it, and the sink's location.
func pathString(fset *token.FileSet, callee *modFunc, chain []string, sink string, pos token.Pos) (string, []string) {
	elems := prepend(callee.name, chain)
	p := fset.Position(pos)
	elems = append(elems, fmt.Sprintf("%s at %s:%d", sink, filepath.Base(p.Filename), p.Line))
	return strings.Join(elems, " -> "), elems
}

// Return-unit summaries for dbmunits: the power domain of a helper's
// single result, inferred from its return expressions to fixed point, so
// a neutral-named wrapper around a dBm-named value taints arithmetic in
// its callers.
func (m *Module) unitSummaries() map[string]unit {
	if m.units != nil {
		return m.units
	}
	m.units = map[string]unit{}
	conflicted := map[string]bool{}
	for iter := 0; iter < 10; iter++ {
		changed := false
		for _, mf := range m.order {
			if mf.inTest || conflicted[mf.id] {
				continue
			}
			sig := mf.fn.Type().(*types.Signature)
			if sig.Results().Len() != 1 {
				continue
			}
			env := unitEnv{info: mf.pkg.Info, ret: m.units}
			u := unitUnknown
			conflict := false
			for _, e := range returnExprs(mf.decl) {
				ru := env.exprUnit(e)
				switch {
				case ru == unitUnknown:
				case u == unitUnknown:
					u = ru
				case u != ru:
					conflict = true
				}
			}
			if conflict {
				conflicted[mf.id] = true
				if m.units[mf.id] != unitUnknown {
					delete(m.units, mf.id)
					changed = true
				}
				continue
			}
			if u != unitUnknown && m.units[mf.id] != u {
				m.units[mf.id] = u
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return m.units
}

// returnExprs collects the single-result return expressions of the
// declaration itself, closures excluded.
func returnExprs(decl *ast.FuncDecl) []ast.Expr {
	lits := funcLitRanges(decl.Body)
	var out []ast.Expr
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 || lits.contains(ret.Pos()) {
			return true
		}
		out = append(out, ret.Results[0])
		return true
	})
	return out
}

// litRanges tracks closure extents so declaration-level walks can tell
// a function's own statements from its closures'.
type litRanges [][2]token.Pos

func funcLitRanges(body *ast.BlockStmt) litRanges {
	var r litRanges
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			r = append(r, [2]token.Pos{lit.Pos(), lit.End()})
		}
		return true
	})
	return r
}

func (r litRanges) contains(pos token.Pos) bool {
	for _, lr := range r {
		if pos >= lr[0] && pos < lr[1] {
			return true
		}
	}
	return false
}
