package lint

import (
	"go/ast"
	"go/types"
	"maps"
	"strings"
)

// runLockSafety reports every touch of a struct field or package var
// annotated `// guarded by <mu>` at a point where <mu> is not held on
// every path, from a branch-aware must-held scan of each function body
// (methods named *Locked are assumed to be called with the lock held, the
// project's convention). A Lock with no Unlock on some path is the
// tests' to catch: each one deadlocks the next caller. A lock-bearing
// value copied by value is `go vet`'s copylocks finding.
func runLockSafety(prog *Program, _ *config, report progReportFunc) {
	for _, p := range prog.Pkgs {
		guards := collectGuards(p)
		if len(guards) == 0 {
			continue
		}
		sc := &lockScanner{p: p, guards: guards, report: report}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil && !strings.HasSuffix(fd.Name.Name, "Locked") {
					sc.scanStmts(fd.Body.List, lockState{})
				}
			}
		}
	}
}

// lockOp is one sync.Mutex/RWMutex method call, as the scanner reads
// lock operations.
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

// --- guarded-by annotations ---

// collectGuards maps annotated field and variable objects to the name of
// the mutex that guards them. Annotation syntax (doc or trailing comment):
// `// guarded by mu`. Fields of every struct type count, including the
// anonymous struct of a package-level `var pool struct { mu …; … }`.
func collectGuards(p *Package) map[types.Object]string {
	guards := map[types.Object]string{}
	add := func(names []*ast.Ident, doc, comment *ast.CommentGroup) {
		mu := guardName(doc)
		if mu == "" {
			mu = guardName(comment)
		}
		if mu == "" {
			return
		}
		for _, name := range names {
			if obj := p.Info.Defs[name]; obj != nil {
				guards[obj] = mu
			}
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.StructType:
				for _, field := range x.Fields.List {
					add(field.Names, field.Doc, field.Comment)
				}
			case *ast.ValueSpec:
				add(x.Names, x.Doc, x.Comment)
			}
			return true
		})
	}
	return guards
}

func guardName(cg *ast.CommentGroup) string {
	if cg == nil {
		return ""
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, ok := strings.CutPrefix(text, "guarded by "); ok {
			// The mutex name ends at the first non-identifier character,
			// so prose may follow: `// guarded by mu; snapshot first`.
			name := strings.Fields(rest)[0]
			end := len(name)
			for i, r := range name {
				if !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9') {
					end = i
					break
				}
			}
			return name[:end]
		}
	}
	return ""
}

// --- the lock-state scanner ---

// lockState is the set of mutex keys that MUST be held at a program
// point (branch merges intersect, so it never over-claims).
type lockState map[string]bool

// intersect keeps only keys held in both states.
func (s lockState) intersect(o lockState) {
	for k := range s {
		if !o[k] {
			delete(s, k)
		}
	}
}

type lockScanner struct {
	p      *Package
	guards map[types.Object]string
	report progReportFunc
}

// scanStmts walks a statement list updating st and reports guard misuse.
// Returns true if every path through the list terminates (return/panic).
func (sc *lockScanner) scanStmts(stmts []ast.Stmt, st lockState) bool {
	for _, stmt := range stmts {
		if sc.scanStmt(stmt, st) {
			return true
		}
	}
	return false
}

func (sc *lockScanner) scanStmt(stmt ast.Stmt, st lockState) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			// A Try(R)Lock may not acquire, so it claims nothing here.
			if op, ok := lockOpOf(sc.p, call); ok && !op.try {
				if op.lock {
					st[op.key()] = true
				} else {
					delete(st, op.key())
				}
				return false
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				sc.visitExprs(s, st)
				return true
			}
		}
		sc.visitExprs(s, st)
	case *ast.DeferStmt:
		// A deferred unlock releases at exit: the lock stays held here.
		if _, ok := lockOpOf(sc.p, s.Call); ok {
			return false
		}
		// A deferred call or closure is scanned as if it ran here, the
		// closest source-order stand-in for running at exit.
		sc.visitExprs(s, st)
	case *ast.ReturnStmt:
		sc.visitExprs(s, st)
		return true
	case *ast.BranchStmt:
		// break/continue/goto: treat as terminating this path for merge
		// purposes; loop-level flow is out of scope for the scanner.
		return true
	case *ast.BlockStmt:
		return sc.scanStmts(s.List, st)
	case *ast.LabeledStmt:
		return sc.scanStmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			sc.scanStmt(s.Init, st)
		}
		sc.visitExprs(s.Cond, st)
		bodySt := maps.Clone(st)
		bodyTerm := sc.scanStmts(s.Body.List, bodySt)
		elseSt := maps.Clone(st)
		elseTerm := false
		if s.Else != nil {
			elseTerm = sc.scanStmt(s.Else, elseSt)
		}
		switch {
		case bodyTerm && elseTerm:
			return true
		case bodyTerm:
			replace(st, elseSt)
		case elseTerm:
			replace(st, bodySt)
		default:
			bodySt.intersect(elseSt)
			replace(st, bodySt)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			sc.scanStmt(s.Init, st)
		}
		if s.Cond != nil {
			sc.visitExprs(s.Cond, st)
		}
		body := maps.Clone(st)
		sc.scanStmts(s.Body.List, body)
		if s.Post != nil {
			sc.scanStmt(s.Post, body)
		}
	case *ast.RangeStmt:
		sc.visitExprs(s.X, st)
		sc.scanStmts(s.Body.List, maps.Clone(st))
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return sc.scanBranches(s, st)
	case *ast.GoStmt:
		// Goroutines do not inherit the caller's locks: a spawned
		// literal starts with none held.
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			sc.scanStmts(fl.Body.List, lockState{})
		} else {
			sc.visitExprs(s.Call.Fun, st)
		}
		for _, arg := range s.Call.Args {
			sc.visitExprs(arg, st)
		}
	default:
		sc.visitExprs(stmt, st)
	}
	return false
}

// scanBranches handles switch/type-switch/select: each clause runs on a
// clone; fall-through state is the intersection of non-terminating
// clauses (plus the unchanged state when a switch has no default).
func (sc *lockScanner) scanBranches(stmt ast.Stmt, st lockState) bool {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			sc.scanStmt(s.Init, st)
		}
		if s.Tag != nil {
			sc.visitExprs(s.Tag, st)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			sc.scanStmt(s.Init, st)
		}
		sc.visitExprs(s.Assign, st)
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
		hasDefault = true // select always executes exactly one clause
	}
	var live []lockState
	allTerm := true
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				sc.visitExprs(e, st)
			}
			stmts = c.Body
		case *ast.CommClause:
			cs := maps.Clone(st)
			if c.Comm != nil {
				sc.scanStmt(c.Comm, cs)
			}
			if !sc.scanStmts(c.Body, cs) {
				live = append(live, cs)
				allTerm = false
			}
			continue
		}
		cs := maps.Clone(st)
		if !sc.scanStmts(stmts, cs) {
			live = append(live, cs)
			allTerm = false
		}
	}
	if !hasDefault {
		live = append(live, maps.Clone(st))
		allTerm = false
	}
	if allTerm && len(body.List) > 0 {
		return true
	}
	if len(live) > 0 {
		merged := live[0]
		for _, o := range live[1:] {
			merged.intersect(o)
		}
		replace(st, merged)
	}
	return false
}

// replace makes s hold exactly o's keys, for the caller that shares s.
func replace(s, o lockState) {
	clear(s)
	maps.Copy(s, o)
}

// visitExprs checks guarded-field accesses in any expression tree and
// scans nested function literals.
func (sc *lockScanner) visitExprs(n ast.Node, st lockState) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch e := m.(type) {
		case *ast.FuncLit:
			// A closure sees the locks held where it is written (a
			// callback passed down runs under them).
			sc.scanStmts(e.Body.List, maps.Clone(st))
			return false
		case *ast.SelectorExpr:
			sc.checkGuardedAccess(e, st)
		case *ast.Ident:
			sc.checkGuardedVar(e, st)
		}
		return true
	})
}

// checkGuardedVar reports an annotated package-level variable touched
// while its mutex is not held.
func (sc *lockScanner) checkGuardedVar(id *ast.Ident, st lockState) {
	obj := sc.p.Info.ObjectOf(id)
	v, isVar := obj.(*types.Var)
	if !isVar || v.IsField() {
		return
	}
	mu, guarded := sc.guards[obj]
	if !guarded {
		return
	}
	if st[mu] || st[mu+":r"] {
		return
	}
	sc.report(id.Pos(), nil, "variable %s is guarded by %s but accessed without holding it", id.Name, mu)
}

// checkGuardedAccess reports a guarded field touched while its mutex is
// not (must-)held.
func (sc *lockScanner) checkGuardedAccess(sel *ast.SelectorExpr, st lockState) {
	obj := sc.p.Info.ObjectOf(sel.Sel)
	if v, ok := obj.(*types.Var); ok {
		obj = v.Origin() // a field of an instantiated generic type
	}
	mu, guarded := sc.guards[obj]
	if !guarded {
		return
	}
	base := exprText(sel.X)
	key := base + "." + mu
	if st[key] || st[key+":r"] {
		return
	}
	sc.report(sel.Pos(), nil, "field %s.%s is guarded by %s.%s but accessed without holding it", base, sel.Sel.Name, base, mu)
}
