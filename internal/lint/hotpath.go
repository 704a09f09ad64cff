package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotpathDirective marks a function whose steady-state cost budget is
// zero heap allocations. The annotation sits in the doc comment:
//
//	//tango:hotpath
//	func (e *Engine) Run() Time { ... }
//
// runHotPath computes everything reachable from annotated functions
// through static calls and interface dispatch (calls through func values
// have no edge: "anything of this shape" would drag the entire program
// into the hot set through generic runners) and flags
// allocation-inducing constructs anywhere in that set, each finding
// carrying the call chain from the nearest annotated root as witness:
//
//   - function literals that escape (stored, passed, returned, spawned);
//   - bound method values (x.M used as a value allocates a closure);
//   - fmt.* calls (interface boxing plus formatting state);
//   - non-constant string concatenation;
//   - map and slice composite literals;
//   - go statements (a new goroutine is never free on a hot path);
//   - interface boxing: passing or converting a concrete non-pointer
//     value into an interface-typed slot — except (*trace.Recorder).Emit's
//     variadic, which it copies by value: there any type but int, float64,
//     string or bool is reported instead, since Emit panics on it;
//   - append through a local slice with no capacity evidence (a 3-arg
//     make or a reslice like buf[:0] assigned to it in the same
//     function). Appends to fields, parameters, and package-level
//     slices pass: those are the freelist/scratch-reuse idiom whose
//     cost amortizes to zero.
//
// Arguments of panic calls are exempt — a panicking path is already
// off the budget. make and new are deliberately not flagged: the
// freelist idiom allocates once at miss time by design; the analyzer
// polices per-event constructs, not pool refills.
const hotpathDirective = "//tango:hotpath"

func runHotPath(prog *Program, cfg *config, report progReportFunc) {
	g := prog.Graph()

	var roots []*FuncNode
	for _, n := range g.Nodes {
		if n.Decl.Doc == nil {
			continue
		}
		for _, c := range n.Decl.Doc.List {
			if strings.HasPrefix(c.Text, hotpathDirective) {
				roots = append(roots, n)
				break
			}
		}
	}
	if len(roots) == 0 {
		return
	}

	reach := g.Reach(roots, func(Edge) bool { return true })

	for _, n := range g.Nodes {
		if _, hot := reach[n]; !hot || n.Decl.Body == nil {
			continue
		}
		chain := Chain(reach, n)
		path := strings.Join(chain, " → ")
		hp := &hotScan{
			n:     n,
			chain: chain,
			report: func(pos token.Pos, format string, args ...any) {
				args = append(args, path)
				report(pos, chain, format+" [hot path %s]", args...)
			},
		}
		hp.scan()
	}
}

type hotScan struct {
	n      *FuncNode
	chain  []string
	report reportFunc

	panicSpans [][2]token.Pos
	immediate  map[*ast.FuncLit]bool
	capEvid    map[types.Object]bool
}

func (h *hotScan) scan() {
	body := h.n.Decl.Body
	info := h.n.Pkg.Info

	// Pre-passes: panic-argument spans (exempt), immediately-invoked
	// literals (shared budget, descend), and capacity evidence for local
	// slices (make with cap, or a reslice) anywhere in the function.
	h.immediate = map[*ast.FuncLit]bool{}
	h.capEvid = map[types.Object]bool{}
	ast.Inspect(body, func(m ast.Node) bool {
		switch s := m.(type) {
		case *ast.CallExpr:
			if fl, ok := s.Fun.(*ast.FuncLit); ok {
				h.immediate[fl] = true
			}
			if id, ok := s.Fun.(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin && len(s.Args) == 1 {
					h.panicSpans = append(h.panicSpans, [2]token.Pos{s.Args[0].Pos(), s.Args[0].End()})
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				if i >= len(s.Lhs) || !capacityEvidence(info, rhs) {
					continue
				}
				if id, ok := s.Lhs[i].(*ast.Ident); ok {
					if obj := info.ObjectOf(id); obj != nil {
						h.capEvid[obj] = true
					}
				}
			}
		case *ast.ValueSpec:
			for i, v := range s.Values {
				if i >= len(s.Names) || !capacityEvidence(info, v) {
					continue
				}
				if obj := info.ObjectOf(s.Names[i]); obj != nil {
					h.capEvid[obj] = true
				}
			}
		}
		return true
	})

	// Callee heads: distinguish x.M() from x.M-as-value.
	calleeHeads := map[ast.Node]bool{}
	ast.Inspect(body, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			calleeHeads[unwrapFun(call.Fun)] = true
		}
		return true
	})

	ast.Inspect(body, func(m ast.Node) bool {
		if m != nil && h.exempt(m.Pos()) {
			return false
		}
		switch e := m.(type) {
		case *ast.FuncLit:
			if h.immediate[e] {
				return true // runs inline; body shares the budget
			}
			h.report(e.Pos(), "escaping function literal allocates a closure per call; hoist it or predeclare the state it captures")
			return false // its body runs in whatever context invokes it
		case *ast.GoStmt:
			h.report(e.Pos(), "go statement spawns a goroutine on the hot path; move the spawn to setup and feed it through a preallocated queue")
			if fl, ok := e.Call.Fun.(*ast.FuncLit); ok {
				h.immediate[fl] = true // already reported the spawn; don't double-report the literal
			}
			return true
		case *ast.CompositeLit:
			t := info.TypeOf(e)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				h.report(e.Pos(), "map literal allocates; hoist the map to a struct field or package scope and reset it in place")
			case *types.Slice:
				h.report(e.Pos(), "slice literal allocates; reuse a preallocated scratch slice")
			}
			return true
		case *ast.BinaryExpr:
			if e.Op != token.ADD {
				return true
			}
			t := info.TypeOf(e)
			if t == nil || !isString(t) {
				return true
			}
			if tv, ok := info.Types[e]; ok && tv.Value != nil {
				return true // constant-folded at compile time
			}
			h.report(e.Pos(), "string concatenation allocates; preformat at setup or write into a reused []byte buffer")
			return true
		case *ast.SelectorExpr:
			if calleeHeads[e] {
				return true
			}
			if sel, ok := info.Selections[e]; ok && sel.Kind() == types.MethodVal {
				if _, isFn := info.Uses[e.Sel].(*types.Func); isFn {
					h.report(e.Pos(), "bound method value %s allocates a closure; store the receiver and call the method directly", types.ExprString(e))
				}
			}
			return true
		case *ast.CallExpr:
			h.checkCall(e)
			return true
		}
		return true
	})
}

// checkCall flags fmt calls, bare appends, and interface boxing at the
// arguments of one call (or interface conversion).
func (h *hotScan) checkCall(call *ast.CallExpr) {
	info := h.n.Pkg.Info

	// Explicit conversion: T(x) with T an interface type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if boxes(info, call.Args[0]) {
				h.report(call.Pos(), "conversion to %s boxes a %s value (heap-allocates)", tv.Type.String(), info.TypeOf(call.Args[0]).String())
			}
		}
		return
	}

	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if path, ok := importedPkgPath(info, sel.X); ok && path == "fmt" {
			h.report(call.Pos(), "fmt.%s allocates (boxing + formatting state); preformat at setup or use strconv.Append* into a reused buffer", sel.Sel.Name)
			return // don't double-flag the boxed variadic args
		}
	}

	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
			if id.Name == "append" && len(call.Args) > 0 {
				h.checkAppend(call)
			}
			return
		}
	}

	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig == nil {
		return
	}
	params := sig.Params()
	name, _ := calleeName(info, call)
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... forwards the slice, no boxing
			}
			if name == emitFunc {
				if t := info.TypeOf(arg); !emitStores(t) {
					h.report(arg.Pos(), "trace argument of type %s: Emit stores only int, float64, string and bool and panics on anything else; convert it at the call site", t)
				}
				continue // copied into the event by value: the box stays on the stack
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		if boxes(info, arg) {
			h.report(arg.Pos(), "passing %s as %s boxes it into an interface (heap-allocates); take a concrete type or pass a pointer",
				info.TypeOf(arg).String(), pt.String())
		}
	}
}

// emitFunc stores its variadic arguments by value instead of boxing them
// to the heap (internal/trace).
const emitFunc = "(*tango/internal/trace.Recorder).Emit"

// emitStores reports whether Emit stores an argument of static type t.
func emitStores(t types.Type) bool {
	b, ok := types.Unalias(types.Default(t)).(*types.Basic)
	return ok && (b.Kind() == types.Int || b.Kind() == types.Float64 || b.Kind() == types.String || b.Kind() == types.Bool)
}

// checkAppend flags append through a local slice variable that has no
// capacity evidence in the function.
func (h *hotScan) checkAppend(call *ast.CallExpr) {
	info := h.n.Pkg.Info
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return // fields / indexed slots: reuse idiom, capacity persists across calls
	}
	v, ok := info.ObjectOf(id).(*types.Var)
	if !ok || v.IsField() {
		return
	}
	if h.capEvid[v] {
		return
	}
	if v.Parent() == h.n.Pkg.Types.Scope() {
		return // package-level scratch
	}
	if isParam(h.n, v) {
		return // caller owns the capacity
	}
	h.report(call.Pos(), "append to %s without capacity evidence (no make(_, n, c) or reslice in this function) grows on the hot path; preallocate or reuse scratch", id.Name)
}

// capacityEvidence reports whether rhs demonstrates slice capacity:
// a three-argument make, or a reslice expression (buf[:0] keeps the
// backing array).
func capacityEvidence(info *types.Info, rhs ast.Expr) bool {
	switch e := rhs.(type) {
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		if !ok || id.Name != "make" {
			return false
		}
		_, isBuiltin := info.ObjectOf(id).(*types.Builtin)
		return isBuiltin && len(e.Args) == 3
	case *ast.SliceExpr:
		return true
	}
	return false
}

func isParam(n *FuncNode, v *types.Var) bool {
	sig, ok := n.Obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == v {
			return true
		}
	}
	if recv := sig.Recv(); recv == v {
		return true
	}
	// Named results count too: the caller sees them, the function may
	// legitimately build them up.
	for i := 0; i < sig.Results().Len(); i++ {
		if sig.Results().At(i) == v {
			return true
		}
	}
	return false
}

// boxes reports whether placing arg into an interface-typed slot heap-
// allocates: its static type is concrete and not pointer-shaped.
func boxes(info *types.Info, arg ast.Expr) bool {
	t := info.TypeOf(arg)
	if t == nil {
		return false
	}
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	if types.IsInterface(t) {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // one pointer word; fits the interface data slot
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func (h *hotScan) exempt(pos token.Pos) bool {
	for _, s := range h.panicSpans {
		if pos >= s[0] && pos < s[1] {
			return true
		}
	}
	return false
}
