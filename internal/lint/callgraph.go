// Whole-program call graph shared by the interprocedural analyzers
// (hotpath, and detertaint's interface frontier). Resolution is CHA-style
// over the module's own types, stdlib-only, with two edge kinds:
//
//   - call: direct calls and concrete method calls resolve to their
//     single declared target;
//   - iface: interface method calls resolve to every declared method of
//     every project type that implements the interface (class-hierarchy
//     analysis).
//
// Calls through func-typed values and functions passed as values get no
// edge. Function literals are attributed to their enclosing declared function:
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

// Edge is one resolved call from a FuncNode.
type Edge struct {
	Callee *FuncNode
	Pos    token.Pos
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
	g *CallGraph

	// ifaceCands caches CHA candidate lists per (interface, method).
	ifaceCands map[ifaceKey][]*FuncNode

	// namedTypes is every named (non-interface) project type, in
	// deterministic order, for CHA.
	namedTypes []*types.Named
}

type ifaceKey struct {
	iface  *types.Interface
	method string
}

func buildCallGraph(prog *Program) *CallGraph {
	b := &graphBuilder{
		g:          &CallGraph{ByObj: map[*types.Func]*FuncNode{}},
		ifaceCands: map[ifaceKey][]*FuncNode{},
	}
	for _, p := range prog.Pkgs {
		b.collect(p)
	}
	for _, n := range b.g.Nodes {
		if n.Decl.Body == nil {
			continue
		}
		ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				b.addCallEdges(n, call)
			}
			return true
		})
	}
	return b.g
}

// collect adds p's declared functions as nodes and its named
// non-interface types to the CHA candidates.
func (b *graphBuilder) collect(p *Package) {
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
	scope := p.Types.Scope()
	for _, name := range scope.Names() { // already sorted
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
			b.namedTypes = append(b.namedTypes, named)
		}
	}
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

// addCallEdges resolves one call expression. Conversions, builtins,
// immediately-invoked literals (their bodies are already attributed to
// n) and calls through func values add nothing.
func (b *graphBuilder) addCallEdges(n *FuncNode, call *ast.CallExpr) {
	info := n.Pkg.Info
	var fn *types.Func
	switch f := unwrapFun(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok && sel.Kind() == types.MethodVal && types.IsInterface(sel.Recv()) {
			b.addIfaceEdges(n, sel, f.Sel.Name, call.Pos())
			return
		}
		// A concrete method, a package-qualified function or a method
		// expression.
		fn, _ = info.Uses[f.Sel].(*types.Func)
	}
	if callee, ok := b.g.ByObj[fn]; ok {
		n.Out = append(n.Out, Edge{Callee: callee, Pos: call.Pos()})
	}
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
		n.Out = append(n.Out, Edge{Callee: c, Pos: pos})
	}
}

// --- traversal helpers ---

// Reach performs a deterministic BFS from roots following edges accepted
// by follow. It maps every reached node to the node it was first reached
// from (roots map to nil).
func (g *CallGraph) Reach(roots []*FuncNode, follow func(Edge) bool) map[*FuncNode]*FuncNode {
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
		for _, e := range n.Out {
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

// Chain reconstructs the witness path root → … → n from a Reach result,
// as display names.
func Chain(reach map[*FuncNode]*FuncNode, n *FuncNode) []string {
	var out []string
	for cur := n; cur != nil; cur = reach[cur] {
		out = append(out, cur.DisplayName())
	}
	slices.Reverse(out)
	return out
}
