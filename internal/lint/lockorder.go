package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// runLockOrder lifts the per-function lock-state scan into a global
// lock-acquisition-order graph and reports cycles — the static shape of
// a potential deadlock.
//
// Locks are keyed by *class* (lockdep-style): the named type and field
// that declare the mutex ("core.Session.mu"), or the package and name
// for package-level mutexes. Within each function a source-order walk
// tracks the set of classes held; acquiring class B while holding class
// A adds the edge A → B. Calls transmit acquisitions interprocedurally:
// if g may (transitively) acquire B, then calling g while holding A also
// adds A → B, with the call chain down to the acquiring function kept as
// the witness. Goroutine bodies and escaping closures are walked as
// separate contexts with an empty held set (they do not inherit the
// spawner's locks); `defer mu.Unlock()` keeps the lock held to the end
// of the function, matching execution.
//
// A cycle A → B → … → A means two executions can acquire the same
// classes in opposite orders. Self-edges (acquiring a class while a lock
// of the same class is held) are reported too: they are exactly the
// instance-ordering hazard peer-to-peer designs (token borrowing between
// sessions) must rule out.
func runLockOrder(prog *Program, cfg *config, report progReportFunc) {
	g := prog.Graph()

	lo := &lockOrder{
		prog:    prog,
		g:       g,
		acq:     map[*FuncNode][]localAcq{},
		edges:   map[string]map[string]*orderEdge{},
		classes: []string{},
	}
	for _, n := range g.Nodes {
		if n.Decl.Body != nil {
			lo.collectLocal(n)
		}
	}
	lo.propagate()
	for _, n := range g.Nodes {
		if n.Decl.Body != nil {
			lo.walkHeld(n)
		}
	}
	lo.reportCycles(report)
}

// localAcq is one lock acquisition appearing literally in a function.
type localAcq struct {
	class string
	pos   token.Pos
}

// acqHop records how a function (transitively) acquires a class: either
// locally (next == nil) or through a call to next at via.
type acqHop struct {
	next *FuncNode
	via  token.Pos
	pos  token.Pos // local acquisition position (next == nil)
}

// orderEdge is the first-discovered witness that class `to` is acquired
// while `from` is held.
type orderEdge struct {
	from, to string
	pos      token.Pos // acquisition or call site in holder
	holder   *FuncNode
	chain    []string // call chain from holder's callee to the acquirer (empty when local)
}

type lockOrder struct {
	prog *Program
	g    *CallGraph

	acq map[*FuncNode][]localAcq // literal acquisitions per function

	// mayAcq[class][n] = how n transitively acquires class.
	mayAcq map[string]map[*FuncNode]acqHop

	edges   map[string]map[string]*orderEdge
	classes []string
}

// lockClass resolves the receiver expression of a (R)Lock/(R)Unlock call
// to a lock class, or "" when unclassifiable (local mutex aliases).
func lockClass(p *Package, e ast.Expr) string {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		// Field access s.mu: class by the receiver's named type.
		if tn := namedTypeDisplay(p.Info.TypeOf(x.X)); tn != "" {
			return tn + "." + x.Sel.Name
		}
		// Package-level var accessed as pkg.mu from outside.
		if path, ok := importedPkgPath(p.Info, x.X); ok {
			if i := strings.LastIndexByte(path, '/'); i >= 0 {
				path = path[i+1:]
			}
			return path + "." + x.Sel.Name
		}
	case *ast.Ident:
		v, ok := p.Info.ObjectOf(x).(*types.Var)
		if !ok {
			return ""
		}
		if !v.IsField() && v.Parent() == p.Types.Scope() {
			return p.Name + "." + x.Name // package-level mutex
		}
		// Receiver (or local) of a lock-embedding named type: s.Lock().
		if tn := namedTypeDisplay(v.Type()); tn != "" {
			return tn
		}
	}
	return ""
}

// namedTypeDisplay renders the named type behind t (through pointers) as
// "pkg.Type", skipping the bare sync primitives (a *sync.Mutex local is
// an alias, not a class).
func namedTypeDisplay(t types.Type) string {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if obj.Pkg().Path() == "sync" {
		return ""
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// lockOp is one sync.Mutex/RWMutex method call: the single recogniser
// locksafety's intraprocedural scanner and lockorder's held-set walk both
// read lock operations through.
type lockOp struct {
	recv ast.Expr
	lock bool // acquires (Lock, RLock, TryLock, TryRLock) rather than releases
	read bool // the RWMutex read side (RLock, TryRLock, RUnlock)
	try  bool // TryLock/TryRLock: the acquisition may fail
}

// key names the mutex instance and mode: a read hold and a write hold of
// one RWMutex are tracked apart.
func (o lockOp) key() string {
	if o.read {
		return exprText(o.recv) + ":r"
	}
	return exprText(o.recv)
}

// lockOpOf classifies call, reporting false for anything but the six
// lock methods of sync.Mutex and sync.RWMutex.
func lockOpOf(p *Package, call *ast.CallExpr) (lockOp, bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return lockOp{}, false
	}
	fn, isFn := p.Info.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return lockOp{}, false
	}
	full := fn.FullName()
	if !strings.HasPrefix(full, "(*sync.Mutex).") && !strings.HasPrefix(full, "(*sync.RWMutex).") {
		return lockOp{}, false
	}
	switch sel.Sel.Name {
	case "Lock", "TryLock":
		return lockOp{recv: sel.X, lock: true, try: sel.Sel.Name == "TryLock"}, true
	case "RLock", "TryRLock":
		return lockOp{recv: sel.X, lock: true, read: true, try: sel.Sel.Name == "TryRLock"}, true
	case "Unlock":
		return lockOp{recv: sel.X}, true
	case "RUnlock":
		return lockOp{recv: sel.X, read: true}, true
	}
	return lockOp{}, false
}

func (lo *lockOrder) collectLocal(n *FuncNode) {
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		op, ok := lockOpOf(n.Pkg, call)
		if !ok || !op.lock {
			return true
		}
		if class := lockClass(n.Pkg, op.recv); class != "" {
			lo.acq[n] = append(lo.acq[n], localAcq{class: class, pos: call.Pos()})
		}
		return true
	})
}

// propagate computes mayAcq: for every class, the set of functions that
// may acquire it transitively (following static and interface-dispatch
// edges), with one witness hop each.
func (lo *lockOrder) propagate() {
	lo.mayAcq = map[string]map[*FuncNode]acqHop{}
	rev := map[*FuncNode][]Edge{} // callee -> (caller, pos)
	for _, n := range lo.g.Nodes {
		for _, e := range n.Out {
			if e.Kind != EdgeCall && e.Kind != EdgeIface {
				continue
			}
			rev[e.Callee] = append(rev[e.Callee], Edge{Callee: n, Pos: e.Pos})
		}
	}
	classSet := map[string]bool{}
	for _, n := range lo.g.Nodes {
		for _, a := range lo.acq[n] {
			classSet[a.class] = true
		}
	}
	for c := range classSet {
		lo.classes = append(lo.classes, c)
	}
	sort.Strings(lo.classes)
	for _, class := range lo.classes {
		m := map[*FuncNode]acqHop{}
		var queue []*FuncNode
		for _, n := range lo.g.Nodes {
			for _, a := range lo.acq[n] {
				if a.class == class {
					m[n] = acqHop{pos: a.pos}
					queue = append(queue, n)
					break
				}
			}
		}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, in := range rev[n] {
				caller := in.Callee
				if _, ok := m[caller]; ok {
					continue
				}
				m[caller] = acqHop{next: n, via: in.Pos}
				queue = append(queue, caller)
			}
		}
		lo.mayAcq[class] = m
	}
}

// heldLock is one currently-held lock during the source-order walk.
type heldLock struct {
	instance string // receiver expression text, for unlock matching
	class    string
}

// walkHeld performs the source-order held-set walk over one function,
// adding order edges. Escaping/goroutine closures are queued as separate
// contexts with an empty held set.
func (lo *lockOrder) walkHeld(n *FuncNode) {
	// Call sites were already resolved by the graph builder; index the
	// call/iface edges by position so the walk can look up callees.
	callees := map[token.Pos][]*FuncNode{}
	for _, e := range n.Out {
		if e.Kind == EdgeCall || e.Kind == EdgeIface {
			callees[e.Pos] = append(callees[e.Pos], e.Callee)
		}
	}

	// Immediately-invoked literals share the caller's held set.
	immediate := map[*ast.FuncLit]bool{}
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if fl, ok := call.Fun.(*ast.FuncLit); ok {
				immediate[fl] = true
			}
		}
		return true
	})

	var contexts []ast.Node
	var walk func(body ast.Node, held *[]heldLock)
	walk = func(body ast.Node, held *[]heldLock) {
		ast.Inspect(body, func(m ast.Node) bool {
			switch s := m.(type) {
			case *ast.DeferStmt:
				if op, ok := lockOpOf(n.Pkg, s.Call); ok && !op.lock {
					// Deferred unlock: the lock stays held to the end of
					// the function, which the walk models by never
					// popping it. Nothing to do at the defer site.
					return false
				}
				if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
					// A deferred closure runs with whatever is held at
					// exit; treating it as running here is the closest
					// source-order approximation.
					walk(fl.Body, held)
					return false
				}
				lo.callEdges(n, s.Call, callees, *held)
				return false
			case *ast.GoStmt:
				if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
					contexts = append(contexts, fl.Body)
					return false
				}
				// `go f(...)`: f runs without the spawner's locks, but
				// its own acquisition order still matters — it was
				// collected when walking f itself.
				return false
			case *ast.FuncLit:
				if immediate[s] {
					return true // body shares the held set
				}
				contexts = append(contexts, s.Body)
				return false
			case *ast.CallExpr:
				if op, ok := lockOpOf(n.Pkg, s); ok {
					inst := exprText(op.recv)
					if op.lock {
						class := lockClass(n.Pkg, op.recv)
						if class != "" {
							for _, h := range *held {
								lo.addEdge(h.class, class, s.Pos(), n, nil)
							}
							*held = append(*held, heldLock{instance: inst, class: class})
						}
						return false
					}
					for i := len(*held) - 1; i >= 0; i-- {
						if (*held)[i].instance == inst {
							*held = append((*held)[:i], (*held)[i+1:]...)
							break
						}
					}
					return false
				}
				lo.callEdges(n, s, callees, *held)
				return true
			}
			return true
		})
	}

	var held []heldLock
	walk(n.Decl.Body, &held)
	for len(contexts) > 0 {
		body := contexts[0]
		contexts = contexts[1:]
		var fresh []heldLock
		walk(body, &fresh)
	}
}

// callEdges adds order edges for every class the callees of one call may
// acquire while the given set is held.
func (lo *lockOrder) callEdges(n *FuncNode, call *ast.CallExpr, callees map[token.Pos][]*FuncNode, held []heldLock) {
	if len(held) == 0 {
		return
	}
	for _, callee := range callees[call.Pos()] {
		for _, class := range lo.classes {
			hop, ok := lo.mayAcq[class][callee]
			if !ok {
				continue
			}
			// Witness: the call chain from the callee down to the
			// function that performs the acquisition.
			chain := []string{callee.DisplayName()}
			for hop.next != nil {
				chain = append(chain, hop.next.DisplayName())
				hop = lo.mayAcq[class][hop.next]
			}
			for _, h := range held {
				lo.addEdge(h.class, class, call.Pos(), n, chain)
			}
		}
	}
}

func (lo *lockOrder) addEdge(from, to string, pos token.Pos, holder *FuncNode, chain []string) {
	m := lo.edges[from]
	if m == nil {
		m = map[string]*orderEdge{}
		lo.edges[from] = m
	}
	if _, ok := m[to]; ok {
		return
	}
	m[to] = &orderEdge{from: from, to: to, pos: pos, holder: holder, chain: chain}
}

// reportCycles finds strongly connected components of the class graph
// and reports one finding per cyclic component, with the witness chain
// for every edge on a representative cycle.
func (lo *lockOrder) reportCycles(report progReportFunc) {
	// Node universe: every class that appears on an edge.
	nodeSet := map[string]bool{}
	for from, m := range lo.edges {
		nodeSet[from] = true
		for to := range m {
			nodeSet[to] = true
		}
	}
	var nodes []string
	for c := range nodeSet {
		nodes = append(nodes, c)
	}
	sort.Strings(nodes)

	succ := func(c string) []string {
		m := lo.edges[c]
		out := make([]string, 0, len(m))
		for to := range m {
			out = append(out, to)
		}
		sort.Strings(out)
		return out
	}

	// Tarjan SCC, deterministic by sorted node order.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ(v) {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Strings(comp)
			sccs = append(sccs, comp)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}

	for _, comp := range sccs {
		inComp := map[string]bool{}
		for _, c := range comp {
			inComp[c] = true
		}
		selfLoop := len(comp) == 1 && lo.edges[comp[0]] != nil && lo.edges[comp[0]][comp[0]] != nil
		if len(comp) < 2 && !selfLoop {
			continue
		}
		cycle := lo.findCycle(comp[0], inComp)
		if len(cycle) == 0 {
			continue
		}
		var desc []string
		var witness []string
		for i := 0; i+1 < len(cycle); i++ {
			e := lo.edges[cycle[i]][cycle[i+1]]
			desc = append(desc, fmt.Sprintf("%s → %s", e.from, e.to))
			w := fmt.Sprintf("%s → %s at %s in %s", e.from, e.to, posString(lo.prog.Fset, e.pos), e.holder.DisplayName())
			if len(e.chain) > 0 {
				w += " via " + strings.Join(e.chain, " → ")
			}
			witness = append(witness, w)
		}
		first := lo.edges[cycle[0]][cycle[1]]
		report(first.pos, witness,
			"lock-order cycle (potential deadlock): %s; two executions can acquire these locks in opposite orders — impose a global order or narrow a critical section [%s]",
			strings.Join(desc, ", "), strings.Join(witness, "; "))
	}
}

// findCycle returns a shortest cycle through start within the component,
// as a node list beginning and ending with start.
func (lo *lockOrder) findCycle(start string, inComp map[string]bool) []string {
	// BFS from start back to start.
	type pathNode struct {
		class  string
		parent int
	}
	queue := []pathNode{{class: start, parent: -1}}
	var all []pathNode
	visited := map[string]bool{}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		all = append(all, cur)
		curIdx := len(all) - 1
		m := lo.edges[cur.class]
		var outs []string
		for to := range m {
			outs = append(outs, to)
		}
		sort.Strings(outs)
		for _, to := range outs {
			if !inComp[to] {
				continue
			}
			if to == start {
				// Reconstruct.
				var rev []string
				rev = append(rev, start)
				for i := curIdx; i >= 0; i = all[i].parent {
					rev = append(rev, all[i].class)
				}
				out := make([]string, 0, len(rev))
				for i := len(rev) - 1; i >= 0; i-- {
					out = append(out, rev[i])
				}
				return out
			}
			if visited[to] {
				continue
			}
			visited[to] = true
			queue = append(queue, pathNode{class: to, parent: curIdx})
		}
	}
	return nil
}
