package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// errDiscardAllowed lists callees whose error return is conventionally
// ignorable: terminal printing (errcheck's default exclusion) and
// writers documented never to fail.
var errDiscardAllowed = map[string]bool{
	"fmt.Print": true, "fmt.Printf": true, "fmt.Println": true,
	"fmt.Fprint": true, "fmt.Fprintf": true, "fmt.Fprintln": true,
}

var errDiscardAllowedRecv = []string{
	"(*strings.Builder).",
	"(*bytes.Buffer).",
	"(*strings.Reader).", // e.g. Seek in tests/tools
	"(hash.Hash).",
}

// runErrDiscard flags expression statements in internal packages that
// call a function returning an error and drop it on the floor. Explicit
// discards (`_ = f()`) and defers are left alone: they are visible
// decisions, not accidents.
func runErrDiscard(prog *Program, _ *config, report progReportFunc) {
	for _, p := range prog.Pkgs {
		if !strings.Contains("/"+p.Path+"/", "/internal/") {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				es, ok := n.(*ast.ExprStmt)
				if !ok {
					return true
				}
				call, ok := es.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !callReturnsError(p.Info, call) {
					return true
				}
				if name, ok := calleeName(p.Info, call); ok {
					if errDiscardAllowed[name] {
						return true
					}
					for _, prefix := range errDiscardAllowedRecv {
						if strings.HasPrefix(name, prefix) {
							return true
						}
					}
					report(call.Pos(), nil, "error return of %s is silently discarded; handle it or assign to _ explicitly", name)
					return true
				}
				report(call.Pos(), nil, "error return is silently discarded; handle it or assign to _ explicitly")
				return true
			})
		}
	}
}

// callReturnsError reports whether any result of the call is an error.
func callReturnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// calleeName resolves the called function's qualified name, e.g.
// "fmt.Println" or "(*bytes.Buffer).WriteString".
func calleeName(info *types.Info, call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", false
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn.FullName(), true
	}
	return "", false
}
