// Package poolbalance enforces the single-owner pooled-buffer protocol
// (DESIGN.md): a buffer taken from a pool (ring.Context.GetPolyNoZero,
// plan ctBufPool.get, getSlots) must, on every control-flow path, be
// returned to the pool (PutPoly / put / putSlots), returned to the
// caller (ownership transfer by convention), or stored somewhere marked
// `//heax:owns`. A path that reaches function exit still holding the
// buffer is a leak: the pool refills from the heap and the zero-alloc
// steady state erodes — exactly the class of bug the runtime alloc tests
// only catch on the inputs they drive.
//
// The check is path-sensitive about nil guards: having observed
// `v = GetPolyNoZero()` it knows v is non-nil, so the false edge of
// `if v != nil { ctx.PutPoly(v) }` is pruned rather than reported.
// Calls that merely receive the buffer as an argument are borrows, not
// transfers — the repo's Into-kernel convention — so an early error
// return between Get and Put is still caught.
package poolbalance

import (
	"go/ast"
	"go/token"
	"go/types"

	"heax/tools/heaxlint/analysis"
	"heax/tools/heaxlint/analysis/cfg"
)

var Analyzer = &analysis.Analyzer{
	Name: "poolbalance",
	Doc:  "pooled buffers must be Put, returned, or //heax:owns-transferred on every path",
	Run:  run,
}

// Packages lists the import paths whose pools the checker knows.
var Packages = map[string]bool{
	"heax":               true,
	"heax/internal/ring": true,
	"heax/internal/ckks": true,
}

// pairs maps each Get-style method name to the Put that balances it.
var pairs = map[string]string{
	"GetPolyNoZero": "PutPoly",
	"Get":           "Put",
	"get":           "put",
	"getSlots":      "putSlots",
}

func run(pass *analysis.Pass) (any, error) {
	if !Packages[pass.Pkg.Path()] {
		return nil, nil
	}
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file) {
			continue
		}
		dirs := pass.FileDirectives(file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, dirs, fn)
		}
	}
	return nil, nil
}

// a getSite is one pooled acquisition inside a function.
type getSite struct {
	call *ast.CallExpr
	put  string       // balancing Put method name
	obj  types.Object // variable bound to the buffer, if an identifier LHS
	lhs  ast.Expr     // LHS expression when not a plain identifier
}

func checkFunc(pass *analysis.Pass, dirs *analysis.Directives, fn *ast.FuncDecl) {
	sites := collectGets(pass, fn)
	if len(sites) == 0 {
		return
	}
	defers := collectDeferredPuts(pass, fn)
	var graph *cfg.CFG // built lazily: most functions settle on defers

	for _, site := range sites {
		if dirs.Has("owns", site.call.Pos()) {
			continue
		}
		switch {
		case site.obj != nil:
			if defersCover(pass, defers, site.put, func(arg ast.Expr) bool {
				id, ok := ast.Unparen(arg).(*ast.Ident)
				return ok && pass.TypesInfo.Uses[id] == site.obj
			}) {
				continue
			}
			if graph == nil {
				graph = cfg.New(fn.Body)
			}
			checkPaths(pass, graph, site)
		case site.lhs != nil:
			// Stored straight into a field/slot: balanced only by a defer
			// on the syntactically same expression, or //heax:owns.
			want := types.ExprString(site.lhs)
			if defersCover(pass, defers, site.put, func(arg ast.Expr) bool {
				return types.ExprString(ast.Unparen(arg)) == want
			}) {
				continue
			}
			pass.Reportf(site.call.Pos(), "pooled %s stored into %s with no matching defer %s and no //heax:owns", getName(site.call), want, site.put)
		default:
			pass.Reportf(site.call.Pos(), "pooled %s used as a subexpression: bind it to a variable or mark the line //heax:owns", getName(site.call))
		}
	}
}

// collectGets finds pooled acquisitions. A call qualifies when its
// callee name is a known Get and the callee is declared in one of
// Packages (so net/http.Get and friends never match).
func collectGets(pass *analysis.Pass, fn *ast.FuncDecl) []getSite {
	var sites []getSite
	// Map each qualifying call to its binding form by walking statements.
	claimed := make(map[*ast.CallExpr]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, put := poolGet(pass, rhs)
			if call == nil {
				continue
			}
			claimed[call] = true
			site := getSite{call: call, put: put}
			if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					site.obj = obj
				} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
					site.obj = obj
				}
			} else {
				site.lhs = as.Lhs[i]
			}
			sites = append(sites, site)
		}
		return true
	})
	// Everything else (composite literals, call arguments, returns of a
	// fresh Get) is an unbound use.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, put := poolGet(pass, n)
		if call == nil || claimed[call] {
			return true
		}
		if enclosingReturn(fn, call) {
			return true // `return pool.Get()` transfers ownership by convention
		}
		sites = append(sites, getSite{call: call, put: put})
		return true
	})
	return sites
}

// poolGet reports whether e is a call to a known pool Get declared in
// an allowlisted package, returning the call and its balancing Put.
func poolGet(pass *analysis.Pass, n ast.Node) (*ast.CallExpr, string) {
	e, ok := n.(ast.Expr)
	if !ok {
		return nil, ""
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	var name string
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name, obj = fun.Name, pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		name, obj = fun.Sel.Name, pass.TypesInfo.Uses[fun.Sel]
	default:
		return nil, ""
	}
	put, ok := pairs[name]
	if !ok || obj == nil || obj.Pkg() == nil || !Packages[obj.Pkg().Path()] {
		return nil, ""
	}
	return call, put
}

// enclosingReturn reports whether call appears inside a return
// statement's results.
func enclosingReturn(fn *ast.FuncDecl, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return !found
		}
		for _, r := range ret.Results {
			if containsNode(r, call) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// a deferredPut is one `defer x.Put(arg)` (or a deferred closure whose
// body puts) recorded as the Put name plus the argument expressions it
// releases.
type deferredPut struct {
	put  string
	args []ast.Expr
}

func collectDeferredPuts(pass *analysis.Pass, fn *ast.FuncDecl) []deferredPut {
	var out []deferredPut
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if lit, ok := ds.Call.Fun.(*ast.FuncLit); ok {
			// defer func() { ... ctx.PutPoly(v) ... }()
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if call, put := putCall(pass, m); call != nil {
					out = append(out, deferredPut{put: put, args: call.Args})
				}
				return true
			})
			return true
		}
		if call, put := putCall(pass, ds.Call); call != nil {
			out = append(out, deferredPut{put: put, args: call.Args})
		}
		return true
	})
	return out
}

// putCall reports whether n is a call to a known pool Put declared in
// an allowlisted package.
func putCall(pass *analysis.Pass, n ast.Node) (*ast.CallExpr, string) {
	var call *ast.CallExpr
	switch n := n.(type) {
	case *ast.CallExpr:
		call = n
	case *ast.ExprStmt:
		c, ok := n.X.(*ast.CallExpr)
		if !ok {
			return nil, ""
		}
		call = c
	default:
		return nil, ""
	}
	var name string
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name, obj = fun.Name, pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		name, obj = fun.Sel.Name, pass.TypesInfo.Uses[fun.Sel]
	default:
		return nil, ""
	}
	if !isPutName(name) || obj == nil || obj.Pkg() == nil || !Packages[obj.Pkg().Path()] {
		return nil, ""
	}
	return call, name
}

func isPutName(name string) bool {
	for _, p := range pairs {
		if p == name {
			return true
		}
	}
	return false
}

func defersCover(pass *analysis.Pass, defers []deferredPut, put string, match func(ast.Expr) bool) bool {
	for _, d := range defers {
		if d.put != put {
			continue
		}
		for _, a := range d.args {
			if match(a) {
				return true
			}
		}
	}
	return false
}

// checkPaths walks the CFG forward from the Get and reports the first
// path that reaches function exit still holding the buffer.
func checkPaths(pass *analysis.Pass, graph *cfg.CFG, site getSite) {
	// Locate the block and node index of the Get's statement.
	startBlock, startIdx := -1, -1
	for bi, blk := range graph.Blocks {
		for ni, n := range blk.Nodes {
			if containsNode(n, site.call) {
				startBlock, startIdx = bi, ni
			}
		}
	}
	if startBlock < 0 {
		return // not reachable in the graph (dead code)
	}

	visited := make(map[*cfg.Block]bool)
	var leak func(blk *cfg.Block, from int) bool
	leak = func(blk *cfg.Block, from int) bool {
		if blk == graph.Exit {
			return true
		}
		if visited[blk] {
			return false
		}
		visited[blk] = true
		for i := from; i < len(blk.Nodes); i++ {
			n := blk.Nodes[i]
			if releases(pass, n, site) {
				return false // balanced on this path
			}
			if transfers(pass, n, site) {
				return false // ownership handed off
			}
		}
		for _, e := range blk.Succs {
			if e.Panic {
				continue // abnormal exit: the recover boundary repools nothing, but neither does the heap care
			}
			if edgeImpossible(pass, e, site.obj) {
				continue // e.g. the `v == nil` arm while v is provably non-nil
			}
			if leak(e.To, 0) {
				return true
			}
		}
		return false
	}
	if leak(graph.Blocks[startBlock], startIdx+1) {
		pass.Reportf(site.call.Pos(), "pooled buffer from %s can reach function exit without %s: add the Put on every path, defer it, or mark the transfer //heax:owns", getName(site.call), site.put)
	}
}

// releases reports whether node n puts site's buffer back: a call
// put(v), or a defer of one (a defer executed on this path covers every
// later exit, so the walk may stop).
func releases(pass *analysis.Pass, n ast.Node, site getSite) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false // a closure body is not this path
		}
		call, put := putCall(pass, m)
		if call == nil || put != site.put {
			return true
		}
		for _, a := range call.Args {
			if usesObj(pass, a, site.obj) {
				found = true
			}
		}
		return true
	})
	if found {
		return true
	}
	if ds, ok := n.(*ast.DeferStmt); ok {
		for _, d := range collectDeferredPutsFrom(pass, ds) {
			if d.put != site.put {
				continue
			}
			for _, a := range d.args {
				if usesObj(pass, a, site.obj) {
					return true
				}
			}
		}
	}
	return false
}

func collectDeferredPutsFrom(pass *analysis.Pass, ds *ast.DeferStmt) []deferredPut {
	var out []deferredPut
	if lit, ok := ds.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if call, put := putCall(pass, m); call != nil {
				out = append(out, deferredPut{put: put, args: call.Args})
			}
			return true
		})
		return out
	}
	if call, put := putCall(pass, ds.Call); call != nil {
		out = append(out, deferredPut{put: put, args: call.Args})
	}
	return out
}

// transfers reports whether node n hands ownership of the buffer away:
// returning it, or storing it into non-local memory (a field, slice
// slot, map entry, or channel). Passing it as a plain call argument is
// a borrow and does NOT transfer.
func transfers(pass *analysis.Pass, n ast.Node, site getSite) bool {
	switch n := n.(type) {
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			if usesObj(pass, r, site.obj) {
				return true
			}
		}
	case *ast.SendStmt:
		return usesObj(pass, n.Value, site.obj)
	case *ast.AssignStmt:
		for i, rhs := range n.Rhs {
			if !usesObj(pass, rhs, site.obj) {
				continue
			}
			if len(n.Lhs) != len(n.Rhs) {
				return true // multi-assign from call: be conservative
			}
			switch ast.Unparen(n.Lhs[i]).(type) {
			case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
				return true // stored into a field / slot / pointee
			}
		}
	}
	return false
}

// usesObj reports whether expr references site.obj.
func usesObj(pass *analysis.Pass, expr ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// edgeImpossible prunes branch edges contradicted by the fact that obj
// is non-nil (pool Gets never return nil): the true edge of
// `if v == nil`, the false edge of `if v != nil`.
func edgeImpossible(pass *analysis.Pass, e cfg.Edge, obj types.Object) bool {
	if e.Cond == nil || obj == nil {
		return false
	}
	bin, ok := ast.Unparen(e.Cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	var other ast.Expr
	switch {
	case isObjIdent(pass, bin.X, obj):
		other = bin.Y
	case isObjIdent(pass, bin.Y, obj):
		other = bin.X
	default:
		return false
	}
	if id, ok := ast.Unparen(other).(*ast.Ident); !ok || id.Name != "nil" {
		return false
	}
	switch bin.Op {
	case token.EQL: // v == nil: false, so the non-negated edge is impossible
		return !e.Negate
	case token.NEQ: // v != nil: true, so the negated edge is impossible
		return e.Negate
	}
	return false
}

func isObjIdent(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && pass.TypesInfo.Uses[id] == obj
}

func getName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return types.ExprString(fun)
	}
	return "Get"
}
