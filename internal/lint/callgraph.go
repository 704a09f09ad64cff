// Whole-program call graph shared by the interprocedural analyzers
// (detertaint, hotpath). Resolution is CHA-style over the
// module's own types, stdlib-only:
//
//   - direct calls and concrete method calls resolve to their single
//     declared target;
//   - interface method calls resolve to every declared method of every
//     project type that implements the interface (class-hierarchy
//     analysis);
//   - references to named functions and bound-method values are recorded
//     as EdgeRef (the referent may be invoked later through the value);
//   - calls through func-typed values resolve to every address-taken
//     project function with a matching signature, restricted to packages
//     the caller's package (transitively) imports — the static shape of
//     "anything that could have been stored in this variable".
//
// Function literals are attributed to their enclosing declared function:
// a closure's call sites, taint sources, and allocation constructs
// belong to the function that created it.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// EdgeKind classifies how a call-graph edge was resolved.
type EdgeKind uint8

const (
	// EdgeCall is a direct static call (including concrete method calls).
	EdgeCall EdgeKind = iota
	// EdgeIface is an interface-dispatch candidate (CHA over project types).
	EdgeIface
	// EdgeFuncVal is a dynamic call through a func-typed value, resolved
	// to address-taken project functions with a matching signature.
	EdgeFuncVal
	// EdgeRef records a function referenced as a value (address taken,
	// passed as a callback, stored in a field) without a visible call.
	EdgeRef
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeIface:
		return "iface"
	case EdgeFuncVal:
		return "funcval"
	case EdgeRef:
		return "ref"
	default:
		return "edge(?)"
	}
}

// Edge is one resolved call (or reference) from a FuncNode.
type Edge struct {
	Callee *FuncNode
	Pos    token.Pos
	Kind   EdgeKind
}

// FuncNode is one declared project function or method.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	Out  []Edge
}

// DisplayName renders the node compactly for witness chains:
// "device.New" or "(*device.Device).reshape".
func (n *FuncNode) DisplayName() string {
	full := n.Obj.FullName()
	return shortenPkgPaths(full)
}

// shortenPkgPaths trims every import path in a types.Func full name down
// to its final element, so witnesses stay readable.
func shortenPkgPaths(full string) string {
	var b strings.Builder
	start := -1 // start of a path-like run
	flush := func(end int) {
		if start < 0 {
			return
		}
		seg := full[start:end]
		if i := strings.LastIndexByte(seg, '/'); i >= 0 {
			seg = seg[i+1:]
		}
		b.WriteString(seg)
		start = -1
	}
	for i := 0; i < len(full); i++ {
		c := full[i]
		if c == '(' || c == ')' || c == '*' || c == ' ' || c == ',' {
			flush(i)
			b.WriteByte(c)
			continue
		}
		if start < 0 {
			start = i
		}
	}
	flush(len(full))
	return b.String()
}

// CallGraph is the program-wide graph. Nodes is in deterministic order
// (package load order, then file, then declaration).
type CallGraph struct {
	Nodes []*FuncNode
	ByObj map[*types.Func]*FuncNode

	in map[*FuncNode][]Edge // reversed Out edges, built by Callers
}

// Program is the set of loaded packages presented to whole-program
// analyzers, with the call graph built on demand.
type Program struct {
	Pkgs []*Package
	Fset *token.FileSet

	graph *CallGraph
}

// NewProgram wraps loaded packages. All packages share one FileSet.
func NewProgram(pkgs []*Package) *Program {
	var fset *token.FileSet
	if len(pkgs) > 0 {
		fset = pkgs[0].Fset
	} else {
		fset = token.NewFileSet()
	}
	return &Program{Pkgs: pkgs, Fset: fset}
}

// Graph returns the call graph, building it on first use.
func (prog *Program) Graph() *CallGraph {
	if prog.graph == nil {
		prog.graph = buildCallGraph(prog)
	}
	return prog.graph
}

// --- construction ---

type graphBuilder struct {
	prog  *Program
	g     *CallGraph
	byPkg map[string]*Package // import path -> package

	// importClosure[pkg path] = module-local packages visible from it
	// (transitively imported, plus itself).
	importClosure map[string]map[string]bool

	// addrTaken indexes address-taken functions by normalized signature.
	// The enclosing node of an address-taken function literal is indexed
	// under the literal's signature (the literal is attributed to it).
	addrTaken map[string][]*FuncNode

	// pending dynamic calls awaiting the complete addrTaken index.
	pending []pendingDyn

	// ifaceCands caches CHA candidate lists per (interface, method).
	ifaceCands map[ifaceKey][]*FuncNode

	// namedTypes is every named (non-interface) project type, in
	// deterministic order, for CHA.
	namedTypes []*types.Named
}

type pendingDyn struct {
	caller *FuncNode
	pos    token.Pos
	sig    string
}

type ifaceKey struct {
	iface  *types.Interface
	method string
}

func buildCallGraph(prog *Program) *CallGraph {
	b := &graphBuilder{
		prog:          prog,
		g:             &CallGraph{ByObj: map[*types.Func]*FuncNode{}},
		byPkg:         map[string]*Package{},
		importClosure: map[string]map[string]bool{},
		addrTaken:     map[string][]*FuncNode{},
		ifaceCands:    map[ifaceKey][]*FuncNode{},
	}
	for _, p := range prog.Pkgs {
		b.byPkg[p.Path] = p
	}
	b.collectNodes()
	b.collectNamedTypes()
	b.computeImportClosures()
	for _, n := range b.g.Nodes {
		if n.Decl.Body != nil {
			b.walkBody(n)
		}
	}
	b.resolvePending()
	return b.g
}

func (b *graphBuilder) collectNodes() {
	for _, p := range b.prog.Pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := p.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &FuncNode{Obj: obj, Decl: fd, Pkg: p}
				b.g.Nodes = append(b.g.Nodes, n)
				b.g.ByObj[obj] = n
			}
		}
	}
}

func (b *graphBuilder) collectNamedTypes() {
	for _, p := range b.prog.Pkgs {
		if p.Types == nil {
			continue
		}
		scope := p.Types.Scope()
		names := scope.Names() // already sorted
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(named) {
				continue
			}
			b.namedTypes = append(b.namedTypes, named)
		}
	}
}

// computeImportClosures walks the module-local import DAG once per
// package (memoized).
func (b *graphBuilder) computeImportClosures() {
	var visit func(p *Package) map[string]bool
	visit = func(p *Package) map[string]bool {
		if c, ok := b.importClosure[p.Path]; ok {
			return c
		}
		c := map[string]bool{p.Path: true}
		b.importClosure[p.Path] = c // break cycles defensively
		for _, f := range p.Files {
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				dep, ok := b.byPkg[ip]
				if !ok {
					continue
				}
				for k := range visit(dep) {
					c[k] = true
				}
			}
		}
		return c
	}
	for _, p := range b.prog.Pkgs {
		visit(p)
	}
}

// sigKey normalizes a signature to parameter/result types only (receiver
// and parameter names excluded), so a bound-method value and a plain
// function with the same shape collide as intended.
func sigKey(sig *types.Signature) string {
	var sb strings.Builder
	if sig.Variadic() {
		sb.WriteByte('v')
	}
	sb.WriteByte('(')
	for i := 0; i < sig.Params().Len(); i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(sig.Params().At(i).Type().String())
	}
	sb.WriteString(")(")
	for i := 0; i < sig.Results().Len(); i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(sig.Results().At(i).Type().String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// walkBody records edges for every call and function reference in n's
// declaration, attributing nested function literals to n.
func (b *graphBuilder) walkBody(n *FuncNode) {
	info := n.Pkg.Info

	// Identify the callee-head identifier of each call so plain walks can
	// distinguish `f()` (call) from `g(f)` (reference).
	calleeHeads := map[ast.Node]bool{}
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		calleeHeads[unwrapFun(call.Fun)] = true
		return true
	})

	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		switch e := m.(type) {
		case *ast.CallExpr:
			b.addCallEdges(n, e)
		case *ast.FuncLit:
			// Attributed to n; register n as address-taken under the
			// literal's signature so dynamic calls of that shape can
			// reach the closure's body (conservatively, via n).
			if sig, ok := info.TypeOf(e).(*types.Signature); ok && sig != nil {
				b.registerAddrTaken(sigKey(sig), n)
			}
		case *ast.Ident:
			if calleeHeads[e] {
				return true
			}
			if fn, ok := info.Uses[e].(*types.Func); ok {
				b.addRef(n, fn, e.Pos())
			}
		case *ast.SelectorExpr:
			if calleeHeads[e] {
				return true
			}
			// Bound-method value (x.M used as a value) or package-level
			// function reference (pkg.F passed as a callback).
			if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
				b.addRef(n, fn, e.Pos())
			}
		}
		return true
	})
}

// unwrapFun strips parens and generic instantiation from a call's Fun.
func unwrapFun(e ast.Expr) ast.Node {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return e
		}
	}
}

func (b *graphBuilder) addRef(n *FuncNode, fn *types.Func, pos token.Pos) {
	callee, ok := b.g.ByObj[fn]
	if !ok {
		return // external (stdlib) reference
	}
	n.Out = append(n.Out, Edge{Callee: callee, Pos: pos, Kind: EdgeRef})
	b.registerAddrTaken(sigKey(stripRecv(fn)), callee)
}

// stripRecv returns fn's signature without the receiver, the shape it has
// when used as a bound-method value.
func stripRecv(fn *types.Func) *types.Signature {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return sig
	}
	return types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
}

func (b *graphBuilder) registerAddrTaken(key string, n *FuncNode) {
	for _, have := range b.addrTaken[key] {
		if have == n {
			return
		}
	}
	b.addrTaken[key] = append(b.addrTaken[key], n)
}

// addCallEdges classifies one call expression.
func (b *graphBuilder) addCallEdges(n *FuncNode, call *ast.CallExpr) {
	info := n.Pkg.Info
	fun := unwrapFun(call.Fun)

	// Type conversions and builtins are not calls.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return
	}

	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[f].(type) {
		case *types.Func:
			b.addStatic(n, obj, call.Pos())
			return
		case *types.Builtin, *types.TypeName:
			return
		case nil:
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				b.addIfaceEdges(n, sel, f.Sel.Name, call.Pos())
				return
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				b.addStatic(n, fn, call.Pos())
				return
			}
		}
		// Package-qualified function or method expression.
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			b.addStatic(n, fn, call.Pos())
			return
		}
	case *ast.FuncLit:
		// Immediately-invoked literal: its body is already attributed
		// to n; no edge needed.
		return
	}

	// Dynamic call through a func-typed value.
	if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok && sig != nil {
		b.pending = append(b.pending, pendingDyn{caller: n, pos: call.Pos(), sig: sigKey(sig)})
	}
}

func (b *graphBuilder) addStatic(n *FuncNode, fn *types.Func, pos token.Pos) {
	callee, ok := b.g.ByObj[fn]
	if !ok {
		return // stdlib or generated; analyzers scan external calls locally
	}
	n.Out = append(n.Out, Edge{Callee: callee, Pos: pos, Kind: EdgeCall})
}

// addIfaceEdges adds CHA candidates for an interface method call.
func (b *graphBuilder) addIfaceEdges(n *FuncNode, sel *types.Selection, name string, pos token.Pos) {
	iface, ok := sel.Recv().Underlying().(*types.Interface)
	if !ok {
		return
	}
	key := ifaceKey{iface: iface, method: name}
	cands, cached := b.ifaceCands[key]
	if !cached {
		for _, named := range b.namedTypes {
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), name)
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if node, ok := b.g.ByObj[fn]; ok {
				cands = append(cands, node)
			}
		}
		b.ifaceCands[key] = cands
	}
	for _, c := range cands {
		n.Out = append(n.Out, Edge{Callee: c, Pos: pos, Kind: EdgeIface})
	}
}

// resolvePending resolves recorded dynamic calls against the complete
// address-taken index, restricted to the caller's import closure.
func (b *graphBuilder) resolvePending() {
	for _, pd := range b.pending {
		visible := b.importClosure[pd.caller.Pkg.Path]
		for _, cand := range b.addrTaken[pd.sig] {
			if !visible[cand.Pkg.Path] {
				continue
			}
			pd.caller.Out = append(pd.caller.Out, Edge{Callee: cand, Pos: pd.pos, Kind: EdgeFuncVal})
		}
	}
}

// --- traversal helpers ---

// Reach performs a deterministic BFS from roots following edges accepted
// by follow. It maps every reached node to the node it was first reached
// from (roots map to nil).
func (g *CallGraph) Reach(roots []*FuncNode, follow func(Edge) bool) map[*FuncNode]*FuncNode {
	return bfs(roots, func(n *FuncNode) []Edge { return n.Out }, follow)
}

// Callers is Reach over the reversed edges: the caller closure of roots,
// each caller mapped to its callee one hop nearer a root. The reversed
// edges keep graph order, so the closure is deterministic.
func (g *CallGraph) Callers(roots []*FuncNode, follow func(Edge) bool) map[*FuncNode]*FuncNode {
	if g.in == nil {
		g.in = map[*FuncNode][]Edge{}
		for _, n := range g.Nodes {
			for _, e := range n.Out {
				g.in[e.Callee] = append(g.in[e.Callee], Edge{Callee: n, Pos: e.Pos, Kind: e.Kind})
			}
		}
	}
	return bfs(roots, func(n *FuncNode) []Edge { return g.in[n] }, follow)
}

func bfs(roots []*FuncNode, next func(*FuncNode) []Edge, follow func(Edge) bool) map[*FuncNode]*FuncNode {
	seen := map[*FuncNode]*FuncNode{}
	queue := make([]*FuncNode, 0, len(roots))
	for _, r := range roots {
		if _, ok := seen[r]; ok {
			continue
		}
		seen[r] = nil
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range next(n) {
			if !follow(e) {
				continue
			}
			if _, ok := seen[e.Callee]; ok {
				continue
			}
			seen[e.Callee] = n
			queue = append(queue, e.Callee)
		}
	}
	return seen
}

// hops lists the display names of n and the nodes it was reached
// through, back to its root.
func hops(reach map[*FuncNode]*FuncNode, n *FuncNode) []string {
	var out []string
	for cur := n; cur != nil; cur = reach[cur] {
		out = append(out, cur.DisplayName())
	}
	return out
}

// Chain reconstructs the witness path root → … → n from a Reach result,
// as display names.
func Chain(reach map[*FuncNode]*FuncNode, n *FuncNode) []string {
	out := hops(reach, n)
	slices.Reverse(out)
	return out
}
