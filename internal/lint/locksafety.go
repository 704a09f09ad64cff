package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// runLockSafety runs a branch-aware must-held scan over every function
// body and reports:
//
//  1. every sync.Mutex/RWMutex Lock has a deferred or path-covering
//     Unlock — no return while a lock is held;
//  2. struct fields and package vars annotated `// guarded by <mu>` are
//     only touched while <mu> is held (methods named *Locked are assumed
//     to be called with the lock held, the project's convention).
//
// A lock-bearing value copied by value is `go vet`'s copylocks finding.
func runLockSafety(prog *Program, _ *config, report progReportFunc) {
	reportf := func(pos token.Pos, format string, args ...any) { report(pos, nil, format, args...) }
	for _, p := range prog.Pkgs {
		guards := collectGuards(p)
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				sc := &lockScanner{
					p:           p,
					report:      reportf,
					guards:      guards,
					checkGuards: !strings.HasSuffix(fd.Name.Name, "Locked"),
					leaks:       map[token.Pos]string{},
				}
				st := newLockState()
				if !sc.scanStmts(fd.Body.List, st) {
					sc.checkExit(st)
				}
				sc.flush()
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

// lockState is the set of mutexes that MUST be held at a program point
// (branch merges intersect, so it never over-claims).
type lockState struct {
	held     map[string]token.Pos // lock key -> Lock() call position
	deferred map[string]bool      // keys with a pending deferred unlock
}

func newLockState() *lockState {
	return &lockState{held: map[string]token.Pos{}, deferred: map[string]bool{}}
}

func (s *lockState) clone() *lockState {
	c := newLockState()
	for k, v := range s.held {
		c.held[k] = v
	}
	for k := range s.deferred {
		c.deferred[k] = true
	}
	return c
}

// intersect keeps only keys held in both states.
func (s *lockState) intersect(o *lockState) {
	for k := range s.held {
		if _, ok := o.held[k]; !ok {
			delete(s.held, k)
		}
	}
	for k := range o.deferred {
		s.deferred[k] = true
	}
}

type lockScanner struct {
	p           *Package
	report      reportFunc
	guards      map[types.Object]string
	checkGuards bool
	leaks       map[token.Pos]string // Lock() pos -> message (deduped)
}

func (sc *lockScanner) flush() {
	for pos, msg := range sc.leaks {
		sc.report(pos, "%s", msg)
	}
}

// scanStmts walks a statement list updating st; reports guard misuse and
// records Lock() leaks. Returns true if every path through the list
// terminates (return/panic).
func (sc *lockScanner) scanStmts(stmts []ast.Stmt, st *lockState) bool {
	for _, stmt := range stmts {
		if sc.scanStmt(stmt, st) {
			return true
		}
	}
	return false
}

func (sc *lockScanner) scanStmt(stmt ast.Stmt, st *lockState) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			// A Try(R)Lock may not acquire, so it claims nothing here.
			if op, ok := lockOpOf(sc.p, call); ok && !op.try {
				if op.lock {
					st.held[op.key()] = call.Pos()
				} else {
					delete(st.held, op.key())
					delete(st.deferred, op.key())
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
		if op, ok := lockOpOf(sc.p, s.Call); ok && !op.lock {
			st.deferred[op.key()] = true
			return false
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			// A deferred closure that unlocks counts as a deferred
			// unlock for each mutex it releases.
			ast.Inspect(fl.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if op, ok := lockOpOf(sc.p, call); ok && !op.lock {
						st.deferred[op.key()] = true
					}
				}
				return true
			})
		}
		// A deferred call or closure is scanned as if it ran here, the
		// closest source-order stand-in for running at exit.
		sc.visitExprs(s, st)
	case *ast.ReturnStmt:
		sc.visitExprs(s, st)
		sc.checkExit(st)
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
		bodySt := st.clone()
		bodyTerm := sc.scanStmts(s.Body.List, bodySt)
		elseSt := st.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = sc.scanStmt(s.Else, elseSt)
		}
		switch {
		case bodyTerm && elseTerm:
			return true
		case bodyTerm:
			*st = *elseSt
		case elseTerm:
			*st = *bodySt
		default:
			bodySt.intersect(elseSt)
			*st = *bodySt
		}
	case *ast.ForStmt:
		if s.Init != nil {
			sc.scanStmt(s.Init, st)
		}
		if s.Cond != nil {
			sc.visitExprs(s.Cond, st)
		}
		body := st.clone()
		sc.scanStmts(s.Body.List, body)
		if s.Post != nil {
			sc.scanStmt(s.Post, body)
		}
	case *ast.RangeStmt:
		sc.visitExprs(s.X, st)
		body := st.clone()
		sc.scanStmts(s.Body.List, body)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return sc.scanBranches(s, st)
	case *ast.GoStmt:
		// Goroutines do not inherit the caller's locks: a spawned
		// literal starts with none held.
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			fresh := newLockState()
			if !sc.scanStmts(fl.Body.List, fresh) {
				sc.checkExit(fresh)
			}
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
func (sc *lockScanner) scanBranches(stmt ast.Stmt, st *lockState) bool {
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
	var live []*lockState
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
			cs := st.clone()
			if c.Comm != nil {
				sc.scanStmt(c.Comm, cs)
			}
			if !sc.scanStmts(c.Body, cs) {
				live = append(live, cs)
				allTerm = false
			}
			continue
		}
		cs := st.clone()
		if !sc.scanStmts(stmts, cs) {
			live = append(live, cs)
			allTerm = false
		}
	}
	if !hasDefault {
		live = append(live, st.clone())
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
		*st = *merged
	}
	return false
}

// checkExit records a leak for every mutex still held (and not deferred)
// at a return or at the end of the function body.
func (sc *lockScanner) checkExit(st *lockState) {
	for key, lockPos := range st.held {
		if st.deferred[key] {
			continue
		}
		sc.leaks[lockPos] = "lock " + strings.TrimSuffix(key, ":r") +
			" is not released on every return path; add `defer " + unlockCallFor(key) + "` or unlock before returning"
	}
}

func unlockCallFor(key string) string {
	if recv, ok := strings.CutSuffix(key, ":r"); ok {
		return recv + ".RUnlock()"
	}
	return key + ".Unlock()"
}

// visitExprs checks guarded-field accesses in any expression tree and
// scans nested function literals.
func (sc *lockScanner) visitExprs(n ast.Node, st *lockState) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch e := m.(type) {
		case *ast.FuncLit:
			// A closure sees the locks held where it is written (a
			// callback passed down runs under them); its own extra locks
			// must still balance by its end.
			inner := st.clone()
			if !sc.scanStmts(e.Body.List, inner) {
				leaked := newLockState()
				for k, pos := range inner.held {
					if _, preHeld := st.held[k]; !preHeld {
						leaked.held[k] = pos
					}
				}
				leaked.deferred = inner.deferred
				sc.checkExit(leaked)
			}
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
func (sc *lockScanner) checkGuardedVar(id *ast.Ident, st *lockState) {
	if !sc.checkGuards {
		return
	}
	obj := sc.p.Info.ObjectOf(id)
	v, isVar := obj.(*types.Var)
	if !isVar || v.IsField() {
		return
	}
	mu, guarded := sc.guards[obj]
	if !guarded {
		return
	}
	if _, w := st.held[mu]; w {
		return
	}
	if _, r := st.held[mu+":r"]; r {
		return
	}
	sc.report(id.Pos(), "variable %s is guarded by %s but accessed without holding it", id.Name, mu)
}

// checkGuardedAccess reports a guarded field touched while its mutex is
// not (must-)held.
func (sc *lockScanner) checkGuardedAccess(sel *ast.SelectorExpr, st *lockState) {
	if !sc.checkGuards {
		return
	}
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
	if _, w := st.held[key]; w {
		return
	}
	if _, r := st.held[key+":r"]; r {
		return
	}
	sc.report(sel.Pos(), "field %s.%s is guarded by %s.%s but accessed without holding it", base, sel.Sel.Name, base, mu)
}
