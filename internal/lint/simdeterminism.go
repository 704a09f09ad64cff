package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

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
// does not fix. It is the single recogniser both determinism analyzers
// report from: simdeterminism names each source written in a sim-driven
// package, detertaint propagates them through the call graph.
type nondetSource struct {
	pos    token.Pos
	kind   string // "clock", "rand", "select", or an order leak: "send", "append"
	name   string // the time/rand function, or the ranged map expression
	target string // the appended slice ("append" only)
}

// taint describes the source as detertaint's witness chains end on it.
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

// runSimDeterminism enforces the determinism contract in sim-driven
// packages: no wall-clock reads, no global math/rand state, and no map
// iteration order flowing into appended/emitted results without an
// intervening sort. (A multi-way select is detertaint's to report.)
func runSimDeterminism(p *Package, cfg *config, report reportFunc) {
	if !cfg.simPackages[p.Name] {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			for _, s := range nondetSources(p, decl) {
				switch s.kind {
				case "clock":
					report(s.pos, "wall-clock call time.%s in sim-driven package %q; use the engine's virtual clock", s.name, p.Name)
				case "rand":
					report(s.pos, "global math/rand call rand.%s in sim-driven package %q; thread an explicit *rand.Rand seeded from the config", s.name, p.Name)
				case "send":
					report(s.pos, "channel send inside range over map %s leaks iteration order; collect and sort first", s.name)
				case "append":
					report(s.pos, "range over map %s appends to %s in iteration order with no later sort; sort keys first or sort %s after the loop", s.name, s.target, s.target)
				}
			}
		}
	}
}

// mapOrderLeaks collects the range-over-map loops of one function whose
// iteration order escapes: appends to a slice declared outside the loop,
// or sends on a channel declared outside the loop, with no later sort of
// that slice in the same function. Order-insensitive folds (counting,
// summing, max) pass untouched.
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
		// Collect outer-declared slice variables appended to inside the
		// body, and outer-declared channels sent on.
		var escapes []*ast.Ident
		var sendPos token.Pos
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			switch s := m.(type) {
			case *ast.AssignStmt:
				for i, rhs := range s.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || !isBuiltinAppend(info, call) || i >= len(s.Lhs) {
						continue
					}
					id, ok := s.Lhs[i].(*ast.Ident)
					if !ok {
						continue
					}
					obj := info.ObjectOf(id)
					if obj != nil && !nodeContains(rng, obj.Pos()) {
						escapes = append(escapes, id)
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
			leaks = append(leaks, nondetSource{pos: sendPos, kind: "send", name: exprText(rng.X)})
		}
		for _, id := range escapes {
			if sortedLater(info, fd, rng, info.ObjectOf(id)) {
				continue
			}
			leaks = append(leaks, nondetSource{pos: rng.Pos(), kind: "append", name: exprText(rng.X), target: id.Name})
		}
		return true
	})
	return leaks
}

// sortedLater reports whether obj (the appended slice) is passed to a
// sort/slices ordering function after the range statement, anywhere
// later in the function.
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
