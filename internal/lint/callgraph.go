package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural half of phastlint: a module-wide,
// type-informed call graph built once per Run and shared by every
// analyzer through Pass.Facts. The motivating client is hotalloc —
// extracting one helper out of an annotated kernel used to move its
// allocations out of the analyzer's sight, so the //phast:hotpath
// discipline now propagates transitively over static call edges.
//
// What counts as a static edge:
//
//   - direct calls of package-level functions (`buildSeeds(...)`,
//     `graph.AddSat(...)`),
//   - method calls whose receiver type is concrete (`e.scanPackedChunk(...)`);
//     interface method calls are dynamic dispatch and are not resolved,
//   - calls through a local variable that was assigned exactly one
//     named function (`f := helper; ...; f()`). A variable assigned two
//     different functions, or reassigned something that is not a
//     function, resolves to nothing.
//
// Function literals need no edge of their own: a literal's body is part
// of the enclosing declaration's AST, so its calls are attributed to the
// enclosing function by the body walk — which is exactly right for the
// `f := func() { helper() }; f()` idiom.
//
// Propagation stops at functions annotated //phast:offpath: deliberate
// cold guards (a panic path that only allocates when it fires) and the
// SIMT simulator boundary (host-side emulation whose cost is charged to
// the modeled device) opt out explicitly rather than through scattered
// per-line suppressions.
//
// Known holes, documented rather than papered over: interface dispatch,
// function-typed struct fields (`j.Scan(c)`), function values passed as
// parameters, reflection, and calls into packages that were not part of
// the Run (their bodies are not loaded). CI runs the whole module, so
// the last hole only opens for partial invocations.

// Facts is the shared interprocedural fact base of one Run: every
// declared function body in the loaded packages, its static call edges,
// and the transitive closure of //phast:hotpath reachability.
type Facts struct {
	// Funcs maps a declared function to its fact node. Object identity
	// is shared across packages because every package of a Run comes
	// from one Loader.
	Funcs map[*types.Func]*FuncFact

	// hotVia maps a function reachable from an annotated root (but not
	// itself annotated) to the caller it was first reached through; the
	// chain of hotVia links reconstructs a witness call path.
	hotVia map[*types.Func]*types.Func
}

// FuncFact is one declared function with a body.
type FuncFact struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Hot marks a function whose own doc comment carries //phast:hotpath.
	Hot bool
	// Off marks a function whose own doc comment carries //phast:offpath:
	// hot-path propagation stops at it (see OffPathMarker).
	Off bool
	// Callees are the static call edges out of the body (including the
	// bodies of nested function literals).
	Callees []CallEdge
}

// CallEdge is one resolved static call site.
type CallEdge struct {
	Pos    token.Pos
	Callee *types.Func
}

// BuildFacts constructs the call graph over the given packages and
// propagates hot-path reachability from every annotated root.
func BuildFacts(pkgs []*Package) *Facts {
	f := &Facts{
		Funcs:  make(map[*types.Func]*FuncFact),
		hotVia: make(map[*types.Func]*types.Func),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				f.Funcs[obj] = &FuncFact{
					Obj:     obj,
					Decl:    fd,
					Pkg:     pkg,
					Hot:     hasMarker(fd.Doc, HotPathMarker),
					Off:     hasMarker(fd.Doc, OffPathMarker),
					Callees: collectCallees(pkg.Info, fd.Body),
				}
			}
		}
	}
	f.propagateHot()
	return f
}

// collectCallees resolves the static call edges of one body.
func collectCallees(info *types.Info, body *ast.BlockStmt) []CallEdge {
	// Local variables bound to exactly one named function: f := helper.
	// A second, different binding (or any non-function rebinding) makes
	// the variable unresolvable.
	localFunc := make(map[types.Object]*types.Func)
	conflicted := make(map[types.Object]bool)
	bind := func(lhs ast.Expr, callee *types.Func) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		if callee == nil {
			// Rebound to something that is not a single named function.
			if _, had := localFunc[obj]; had {
				conflicted[obj] = true
			}
			return
		}
		if prev, had := localFunc[obj]; had && prev != callee {
			conflicted[obj] = true
			return
		}
		localFunc[obj] = callee
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if _, isLit := rhs.(*ast.FuncLit); isLit {
				continue // the literal's body is walked in place
			}
			bind(as.Lhs[i], namedFuncValue(info, rhs))
		}
		return true
	})

	var edges []CallEdge
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := resolveCallee(info, call, localFunc, conflicted); callee != nil {
			edges = append(edges, CallEdge{Pos: call.Pos(), Callee: callee})
		}
		return true
	})
	return edges
}

// namedFuncValue resolves an expression to the single named function it
// denotes as a value (helper, pkg.Helper, recv.Method), or nil.
func namedFuncValue(info *types.Info, e ast.Expr) *types.Func {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return namedFuncValue(info, e.X)
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			if sel.Kind() == types.MethodVal && !types.IsInterface(sel.Recv().Underlying()) {
				fn, _ := sel.Obj().(*types.Func)
				return fn
			}
			return nil // field value or interface method value
		}
		fn, _ := info.Uses[e.Sel].(*types.Func) // pkg-qualified function
		return fn
	}
	return nil
}

// resolveCallee resolves one call expression to a static callee, or nil
// for dynamic dispatch (interface methods, function-typed fields,
// parameters, conflicted locals) and builtins/conversions.
func resolveCallee(info *types.Info, call *ast.CallExpr, localFunc map[types.Object]*types.Func, conflicted map[types.Object]bool) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			return obj
		case *types.Var:
			if !conflicted[obj] {
				return localFunc[obj]
			}
		}
	case *ast.SelectorExpr:
		return namedFuncValue(info, fun)
	}
	return nil
}

// propagateHot walks the call graph from every annotated root and
// records, for each function reached, the caller it was reached through.
func (f *Facts) propagateHot() {
	// Deterministic BFS order: roots sorted by position.
	var roots []*FuncFact
	for _, fact := range f.Funcs {
		if fact.Hot {
			roots = append(roots, fact)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Decl.Pos() < roots[j].Decl.Pos() })

	visited := make(map[*types.Func]bool)
	var queue []*types.Func
	for _, r := range roots {
		visited[r.Obj] = true
		queue = append(queue, r.Obj)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		fact := f.Funcs[cur]
		if fact == nil {
			continue
		}
		for _, e := range fact.Callees {
			callee := e.Callee
			if visited[callee] {
				continue
			}
			cf, inModule := f.Funcs[callee]
			if !inModule {
				continue // no body loaded: stdlib or an unloaded package
			}
			if cf.Off {
				continue // //phast:offpath: propagation stops here
			}
			visited[callee] = true
			f.hotVia[callee] = cur
			queue = append(queue, callee)
		}
	}
}

// HotChain returns a witness call path root → ... → fn for a function
// that is reachable from a //phast:hotpath root without being annotated
// itself, and nil otherwise (including for directly annotated functions,
// which hotalloc checks under their own label).
func (f *Facts) HotChain(fn *types.Func) []*types.Func {
	if fact := f.Funcs[fn]; fact == nil || fact.Hot {
		return nil
	}
	if _, ok := f.hotVia[fn]; !ok {
		return nil
	}
	var rev []*types.Func
	for cur := fn; ; {
		rev = append(rev, cur)
		via, ok := f.hotVia[cur]
		if !ok {
			break
		}
		cur = via
	}
	// rev is fn → ... → root; reverse it.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// chainString renders a witness path for diagnostics.
func chainString(chain []*types.Func) string {
	parts := make([]string, len(chain))
	for i, fn := range chain {
		parts[i] = fn.Name()
	}
	return strings.Join(parts, " → ")
}
