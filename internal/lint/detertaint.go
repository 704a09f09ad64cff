package lint

import (
	"go/token"
	"strconv"
	"strings"
)

// runDeterTaint propagates nondeterminism taint through the whole-program
// call graph. A function is tainted when it (or anything it can reach
// through calls, interface dispatch, stored callbacks, or func values)
// observes a nondeterminism source:
//
//   - the wall clock (time.Now, time.Sleep, …);
//   - global math/rand state;
//   - map iteration order that escapes the loop (see simdeterminism);
//   - a select over two or more channels (runtime picks a ready case
//     pseudo-randomly).
//
// simdeterminism already reports time/rand/map sources *inside* the
// sim-driven packages; detertaint is the interprocedural backstop. It
// reports (a) the frontier edge where a sim-driven function calls or
// captures a tainted function outside the sim-driven set — so a helper
// package cannot smuggle a wall-clock read past the per-package scan —
// and (b) multi-way selects written directly in sim-driven code, which
// the per-package scan does not cover.
func runDeterTaint(prog *Program, cfg *config, report progReportFunc) {
	g := prog.Graph()

	// Local sources per node.
	sources := map[*FuncNode][]nondetSource{}
	for _, n := range g.Nodes {
		if ss := nondetSources(n.Pkg, n.Decl); len(ss) > 0 {
			sources[n] = ss
		}
	}

	// Propagate taint backwards: tainted[n] records the next hop towards
	// a source (nil hop = the source is local to n).
	type hop struct {
		next *FuncNode
		via  token.Pos
	}
	tainted := map[*FuncNode]hop{}
	rev := map[*FuncNode][]Edge{} // callee -> incoming edges (Callee field reused as caller)
	for _, n := range g.Nodes {
		for _, e := range n.Out {
			rev[e.Callee] = append(rev[e.Callee], Edge{Callee: n, Pos: e.Pos, Kind: e.Kind})
		}
	}
	var queue []*FuncNode
	for _, n := range g.Nodes {
		if _, ok := sources[n]; ok {
			tainted[n] = hop{}
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, in := range rev[n] {
			caller := in.Callee
			if _, ok := tainted[caller]; ok {
				continue
			}
			tainted[caller] = hop{next: n, via: in.Pos}
			queue = append(queue, caller)
		}
	}

	// chainFrom builds the witness from a tainted node down to its source.
	chainFrom := func(n *FuncNode) (witness []string, srcDesc string, srcPos token.Pos) {
		cur := n
		for {
			witness = append(witness, cur.DisplayName())
			h := tainted[cur]
			if h.next == nil {
				break
			}
			cur = h.next
		}
		s := sources[cur][0]
		return witness, s.taint(), s.pos
	}

	for _, n := range g.Nodes {
		if !cfg.simPackages[n.Pkg.Name] {
			continue
		}
		// Multi-way selects directly in sim-driven code.
		for _, s := range sources[n] {
			if s.kind == "select" {
				report(s.pos, []string{n.DisplayName()},
					"%s in sim-driven package %q; drain channels in a fixed order or add a deterministic arbiter", s.taint(), n.Pkg.Name)
			}
		}
		// Frontier edges into tainted functions outside the sim set.
		seen := map[*FuncNode]bool{}
		for _, e := range n.Out {
			c := e.Callee
			if cfg.simPackages[c.Pkg.Name] || seen[c] {
				continue
			}
			if _, ok := tainted[c]; !ok {
				continue
			}
			seen[c] = true
			witness, srcDesc, srcPos := chainFrom(c)
			verb := "call into"
			if e.Kind == EdgeRef {
				verb = "captured reference to"
			}
			report(e.Pos, append([]string{n.DisplayName()}, witness...),
				"%s nondeterministic %s from sim-driven package %q: %s %s (%s); thread virtual time or an explicit seeded generator instead",
				verb, c.DisplayName(), n.Pkg.Name, strings.Join(witness, " → "), srcDesc, posString(prog.Fset, srcPos))
		}
	}
}

// posString renders file:line with the file shortened to its base name.
func posString(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexAny(name, `/\`); i >= 0 {
		name = name[i+1:]
	}
	return name + ":" + strconv.Itoa(p.Line)
}
