package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// runLockOrder lifts the lock scan (locksafety.go) into a global
// lock-acquisition-order graph and reports cycles — the static shape of
// a potential deadlock.
//
// Locks are keyed by *class* (lockdep-style): the named type and field
// that declare the mutex ("core.Session.mu"), or the package and name
// for package-level mutexes. Acquiring class B while class A is
// must-held adds the edge A → B. Calls transmit acquisitions
// interprocedurally: if g may (transitively) acquire B, then calling g
// while holding A also adds A → B, with the call chain down to the
// acquiring function kept as the witness. Goroutine bodies start with an
// empty held set (they do not inherit the spawner's locks); other
// closures see the locks held where they are written, and
// `defer mu.Unlock()` keeps the lock held to the end of the function,
// matching execution.
//
// A cycle A → B → … → A means two executions can acquire the same
// classes in opposite orders. Self-edges (acquiring a class while a lock
// of the same class is held) are reported too: they are exactly the
// instance-ordering hazard peer-to-peer designs (token borrowing between
// sessions) must rule out.
func runLockOrder(prog *Program, _ *config, report progReportFunc) {
	g := prog.Graph()
	events := prog.locks().events
	calls := func(e Edge) bool { return e.Kind == EdgeCall || e.Kind == EdgeIface }

	// mayAcq[class] is the caller closure of the class's acquirers.
	acquirers := map[string][]*FuncNode{}
	for _, n := range g.Nodes {
		for _, ev := range events[n.Decl] {
			if ev.class != "" {
				acquirers[ev.class] = append(acquirers[ev.class], n)
			}
		}
	}
	classes := slices.Sorted(maps.Keys(acquirers))
	mayAcq := map[string]map[*FuncNode]*FuncNode{}
	for _, class := range classes {
		mayAcq[class] = g.Callers(acquirers[class], calls)
	}

	// edges[from][to] is the first-discovered witness of the order edge.
	edges := map[string]map[string]*orderEdge{}
	add := func(held []string, to string, pos token.Pos, holder *FuncNode, chain []string) {
		for _, from := range held {
			if edges[from] == nil {
				edges[from] = map[string]*orderEdge{}
			}
			if edges[from][to] == nil {
				edges[from][to] = &orderEdge{pos: pos, holder: holder, chain: chain}
			}
		}
	}
	for _, n := range g.Nodes {
		callees := map[token.Pos][]*FuncNode{}
		for _, e := range n.Out {
			if calls(e) {
				callees[e.Pos] = append(callees[e.Pos], e.Callee)
			}
		}
		for _, ev := range events[n.Decl] {
			if ev.class != "" {
				add(ev.held, ev.class, ev.pos, n, nil)
				continue
			}
			for _, callee := range callees[ev.pos] {
				for _, class := range classes {
					if _, ok := mayAcq[class][callee]; ok {
						add(ev.held, class, ev.pos, n, hops(mayAcq[class], callee))
					}
				}
			}
		}
	}

	// One DFS over the classes in sorted order: every back edge closes a
	// cycle, reported once, from its alphabetically-first class.
	const (
		onStack = 1
		done    = 2
	)
	state := map[string]int{}
	var stack []string
	var visit func(c string)
	visit = func(c string) {
		state[c] = onStack
		stack = append(stack, c)
		for _, to := range slices.Sorted(maps.Keys(edges[c])) {
			switch state[to] {
			case 0:
				visit(to)
			case onStack:
				reportCycle(prog.Fset, edges, stack[slices.Index(stack, to):], report)
			}
		}
		stack = stack[:len(stack)-1]
		state[c] = done
	}
	for _, c := range slices.Sorted(maps.Keys(edges)) {
		if state[c] == 0 {
			visit(c)
		}
	}
}

// orderEdge is the first-discovered witness that one class is acquired
// while another is held.
type orderEdge struct {
	pos    token.Pos // acquisition or call site in holder
	holder *FuncNode
	chain  []string // call chain from holder's callee to the acquirer (empty when local)
}

// reportCycle reports the cycle through the given classes, rotated to
// start at its alphabetically-first class, with every edge's witness.
func reportCycle(fset *token.FileSet, edges map[string]map[string]*orderEdge, cycle []string, report progReportFunc) {
	first := slices.Index(cycle, slices.Min(cycle))
	cycle = append(append(slices.Clone(cycle[first:]), cycle[:first]...), cycle[first])
	var desc, witness []string
	for i := 0; i+1 < len(cycle); i++ {
		e := edges[cycle[i]][cycle[i+1]]
		desc = append(desc, cycle[i]+" → "+cycle[i+1])
		w := fmt.Sprintf("%s at %s in %s", desc[i], posString(fset, e.pos), e.holder.DisplayName())
		if len(e.chain) > 0 {
			w += " via " + strings.Join(e.chain, " → ")
		}
		witness = append(witness, w)
	}
	report(edges[cycle[0]][cycle[1]].pos, witness,
		"lock-order cycle (potential deadlock): %s; two executions can acquire these locks in opposite orders — impose a global order or narrow a critical section [%s]",
		strings.Join(desc, ", "), strings.Join(witness, "; "))
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
