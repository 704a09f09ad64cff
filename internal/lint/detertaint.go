package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// runDeterTaint enforces the determinism contract on everything the
// simulator runs. A nondeterminism source is
//
//   - a wall-clock call (time.Now, time.Sleep, …);
//   - a call drawing from global math/rand state;
//   - map iteration order that escapes the loop (an append to a variable
//     or a field with no later sort, or a channel send);
//   - a select over two or more channels (the runtime picks a ready case
//     pseudo-randomly).
//
// It reports every source written in a package of the sim-driven
// packages' module import closure (the sim-driven packages and every
// module package they import, directly or not), package-level
// initialisers included: a helper package cannot smuggle a wall-clock read
// past the check, called or not. Code outside the closure can still run
// in a simulation through an interface a closure package calls (a type in
// cmd/ with a Fire method), so such an iface edge out of the closure is
// reported when its callee reaches a source outside the closure. Every
// finding's witness names the sim-driven package the source is imported
// through and the function holding it ("pkg.init" for an initialiser), or
// the call chain from the closure's caller down to the source.
func runDeterTaint(prog *Program, cfg *config, report progReportFunc) {
	byPath := map[string]*Package{}
	for _, p := range prog.Pkgs {
		byPath[p.Path] = p
	}
	// via[p] is the sim-driven package p is in the closure through.
	via := map[*Package]*Package{}
	var queue []*Package
	for _, p := range prog.Pkgs {
		if cfg.simPackages[p.Name] {
			via[p] = p
			queue = append(queue, p)
		}
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, ip := range p.Imports {
			if dep := byPath[ip]; dep != nil && via[dep] == nil {
				via[dep] = via[p]
				queue = append(queue, dep)
			}
		}
	}

	for _, p := range prog.Pkgs {
		sim := via[p]
		if sim == nil {
			continue
		}
		where, witness := fmt.Sprintf("sim-driven package %q", p.Name), []string(nil)
		if sim != p {
			where = fmt.Sprintf("package %q, imported by sim-driven package %q", p.Name, sim.Name)
			witness = []string{sim.Name}
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				holder := p.Name + ".init"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					holder = p.Name + "." + fd.Name.Name
					if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
						holder = shortenPkgPaths(obj.FullName())
					}
				}
				for _, s := range nondetSources(p, decl) {
					report(s.pos, append(witness, holder), "%s", s.direct(where))
				}
			}
		}
	}

	g := prog.Graph()
	outside := func(e Edge) bool { return via[e.Callee.Pkg] == nil }
	for _, n := range g.Nodes {
		if via[n.Pkg] == nil {
			continue
		}
		seen := map[*FuncNode]bool{}
		for _, e := range n.Out {
			if !outside(e) || seen[e.Callee] {
				continue
			}
			seen[e.Callee] = true
			reach := g.Reach([]*FuncNode{e.Callee}, outside)
			for _, m := range g.Nodes {
				if _, ok := reach[m]; !ok || m.Decl.Body == nil {
					continue
				}
				if ss := nondetSources(m.Pkg, m.Decl); len(ss) > 0 {
					chain := Chain(reach, m)
					report(e.Pos, append([]string{n.DisplayName()}, chain...),
						"interface call reaches nondeterministic %s outside the sim-driven packages' import closure: %s %s (%s); thread virtual time or an explicit seeded generator instead",
						e.Callee.DisplayName(), strings.Join(chain, " → "), ss[0].taint(), posString(prog.Fset, ss[0].pos))
					break
				}
			}
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

// wallClockFuncs are the package-level time functions that read or wait
// on the wall clock. Pure conversions/constructors (time.Duration,
// time.Unix) are fine: the ban is on *observing real time*, which the
// virtual-clock engine must never do.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"AfterFunc": true,
}

// randConstructors are the math/rand package-level functions that build
// explicit generators — the only allowed way to obtain randomness in
// sim-driven code.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 names, accepted so a future migration stays legal.
	"NewPCG": true, "NewChaCha8": true,
}

// nondetSource is one place a declaration observes something the seed
// does not fix.
type nondetSource struct {
	pos    token.Pos
	kind   string // "clock", "rand", "select", or an order leak: "send", "append"
	name   string // the time/rand function, or the ranged map expression
	target string // the appended slice ("append" only)
}

// taint describes the source as a frontier finding's witness chain ends
// on it.
func (s nondetSource) taint() string {
	switch s.kind {
	case "clock":
		return "reads the wall clock via time." + s.name
	case "rand":
		return "draws from global math/rand state via rand." + s.name
	case "select":
		return "selects across multiple channels (ready-case choice is nondeterministic)"
	}
	return "leaks map iteration order (range over " + s.name + ")"
}

// direct is the finding for the source written where where says.
func (s nondetSource) direct(where string) string {
	switch s.kind {
	case "clock":
		return fmt.Sprintf("wall-clock call time.%s in %s; use the engine's virtual clock", s.name, where)
	case "rand":
		return fmt.Sprintf("global math/rand call rand.%s in %s; thread an explicit *rand.Rand seeded from the config", s.name, where)
	case "select":
		return fmt.Sprintf("%s in %s; drain channels in a fixed order or add a deterministic arbiter", s.taint(), where)
	case "send":
		return fmt.Sprintf("channel send inside range over map %s leaks iteration order; collect and sort first", s.name)
	}
	return fmt.Sprintf("range over map %s appends to %s in iteration order with no later sort; sort keys first or sort %s after the loop", s.name, s.target, s.target)
}

// nondetSources lists the sources written directly in one top-level
// declaration: wall-clock and global math/rand calls and selects over
// two or more channels in source order (a package-level initialiser can
// hold the first two), then — for a function — the range-over-map loops
// whose iteration order escapes.
func nondetSources(p *Package, decl ast.Decl) []nondetSource {
	var ss []nondetSource
	ast.Inspect(decl, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			sel, ok := e.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path, ok := importedPkgPath(p.Info, sel.X)
			if !ok {
				return true
			}
			switch {
			case path == "time" && wallClockFuncs[sel.Sel.Name]:
				ss = append(ss, nondetSource{pos: e.Pos(), kind: "clock", name: sel.Sel.Name})
			case (path == "math/rand" || path == "math/rand/v2") && !randConstructors[sel.Sel.Name]:
				ss = append(ss, nondetSource{pos: e.Pos(), kind: "rand", name: sel.Sel.Name})
			}
		case *ast.SelectStmt:
			comm := 0
			for _, c := range e.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					comm++
				}
			}
			if comm >= 2 {
				ss = append(ss, nondetSource{pos: e.Pos(), kind: "select"})
			}
		}
		return true
	})
	if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
		ss = append(ss, mapOrderLeaks(p, fd)...)
	}
	return ss
}

// mapOrderLeaks collects the range-over-map loops of one function whose
// iteration order escapes: appends to a slice declared outside the loop
// (a variable, or a field of one), or sends on a channel declared outside
// the loop, with no later sort of that slice in the same function.
// Order-insensitive folds (counting, summing, max) pass untouched.
func mapOrderLeaks(p *Package, fd *ast.FuncDecl) []nondetSource {
	info := p.Info
	var leaks []nondetSource
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		// Collect the slices appended to inside the body whose variable
		// (or, for a field such as a.targets, whose root variable) is
		// declared outside the loop, and outer-declared channels sent on.
		var escapes []ast.Expr
		var sendPos token.Pos
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			switch s := m.(type) {
			case *ast.AssignStmt:
				for i, rhs := range s.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || !isBuiltinAppend(info, call) || i >= len(s.Lhs) {
						continue
					}
					root := s.Lhs[i]
					for sel, ok := root.(*ast.SelectorExpr); ok; sel, ok = root.(*ast.SelectorExpr) {
						root = sel.X
					}
					id, ok := root.(*ast.Ident)
					if !ok {
						continue
					}
					obj := info.ObjectOf(id)
					if obj != nil && !nodeContains(rng, obj.Pos()) {
						escapes = append(escapes, s.Lhs[i])
					}
				}
			case *ast.SendStmt:
				if id, ok := s.Chan.(*ast.Ident); ok {
					obj := info.ObjectOf(id)
					if obj != nil && !nodeContains(rng, obj.Pos()) {
						sendPos = s.Pos()
					}
				}
			}
			return true
		})
		if sendPos.IsValid() {
			leaks = append(leaks, nondetSource{pos: sendPos, kind: "send", name: types.ExprString(rng.X)})
		}
		for _, lhs := range escapes {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				id = lhs.(*ast.SelectorExpr).Sel // a field is matched by its object
			}
			if sortedLater(info, fd, rng, info.ObjectOf(id)) {
				continue
			}
			leaks = append(leaks, nondetSource{pos: rng.Pos(), kind: "append", name: types.ExprString(rng.X), target: types.ExprString(lhs)})
		}
		return true
	})
	return leaks
}

// sortedLater reports whether obj (the appended variable or field) is
// passed to a sort/slices ordering function after the range statement,
// anywhere later in the function.
func sortedLater(info *types.Info, fd *ast.FuncDecl, rng *ast.RangeStmt, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		path, ok := importedPkgPath(info, sel.X)
		if !ok || (path != "sort" && path != "slices") {
			return true
		}
		for _, arg := range call.Args {
			used := false
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && info.ObjectOf(id) == obj {
					used = true
				}
				return !used
			})
			if used {
				found = true
				break
			}
		}
		return !found
	})
	return found
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := info.ObjectOf(id).(*types.Builtin)
	return isBuiltin
}
