// Package lint implements tangolint, the project's static-analysis
// suite. It enforces the cross-cutting correctness rules the simulator's
// results depend on (see docs/determinism.md):
//
//   - detertaint: the sim-driven packages and every module package they
//     import must not consult wall clocks, global math/rand state, map
//     iteration order or a multi-way select, nor call out of that closure
//     through an interface into code that does.
//   - errdiscard: internal packages must not silently drop error returns.
//   - hotpath: nothing reachable from a //tango:hotpath function may
//     allocate per call.
//
// The implementation uses only the standard library (go/ast, go/parser,
// go/types) and the go command, which lists the module's packages and the
// standard library's export data (load.go); go.mod stays dependency-free.
// Findings can be suppressed with an explanatory comment on the offending
// line or the line above:
//
//	//lint:ignore <analyzer> <reason>
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer diagnosis. Witness, set by the interprocedural
// analyzers, is the call-chain evidence trail, outermost first;
// intra-procedural analyzers leave it nil.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
	Witness  []string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Options configures a lint run.
type Options struct {
	// Root is the module root directory.
	Root string
	// SimPackages overrides the sim-driven package names whose import
	// closure detertaint checks.
	SimPackages []string
}

// DefaultSimPackages are the sim-driven package names: in them and in
// every module package they import, wall-clock time, global randomness,
// and map-order dependence are forbidden (DESIGN.md: the discrete-event
// engine and everything it schedules must be bit-reproducible for a fixed
// seed).
var DefaultSimPackages = []string{
	"sim", "device", "core", "coordinator", "harness", "dftestim", "weightfn",
	"fault", "staging", "cache", "resil", "runpool", "refactor", "errmetric",
	"fleet", "objstore", "tokenctl",
}

// reportFunc reports a finding without a witness; progReportFunc adds
// the witness chain the interprocedural analyzers attach.
type (
	reportFunc     func(pos token.Pos, format string, args ...any)
	progReportFunc func(pos token.Pos, witness []string, format string, args ...any)
)

// analyzer is one named check. Every analyzer runs once over the whole
// loaded program (all packages plus the shared call graph, see
// callgraph.go).
type analyzer struct {
	name string
	run  func(prog *Program, cfg *config, report progReportFunc)
}

// config is the resolved per-run analyzer configuration.
type config struct {
	simPackages map[string]bool
}

var analyzers = []*analyzer{
	{"detertaint", runDeterTaint},
	{"errdiscard", runErrDiscard},
	{"hotpath", runHotPath},
}

func (o *Options) config() *config {
	sim := o.SimPackages
	if sim == nil {
		sim = DefaultSimPackages
	}
	cfg := &config{simPackages: map[string]bool{}}
	for _, n := range sim {
		cfg.simPackages[n] = true
	}
	return cfg
}

// Run loads the module at opts.Root and applies every analyzer to the
// whole program, returning unsuppressed findings sorted by position.
func Run(opts Options) ([]Finding, error) {
	pkgs, err := loadModule(opts.Root)
	if err != nil {
		return nil, err
	}
	findings := analyze(NewProgram(pkgs), opts.config())
	sortFindings(findings)
	return findings, nil
}

// analyze runs the analyzers over the program, applying //lint:ignore
// suppressions from every package.
func analyze(prog *Program, cfg *config) []Finding {
	sup := suppressions{}
	for _, p := range prog.Pkgs {
		for file, byLine := range collectSuppressions(p) {
			sup[file] = byLine
		}
	}
	var findings []Finding
	for _, a := range analyzers {
		report := func(pos token.Pos, witness []string, format string, args ...any) {
			position := prog.Fset.Position(pos)
			if sup.suppressed(a.name, position) {
				return
			}
			findings = append(findings, Finding{
				Pos:      position,
				Analyzer: a.name,
				Message:  fmt.Sprintf(format, args...),
				Witness:  witness,
			})
		}
		a.run(prog, cfg, report)
	}
	return findings
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// suppressions maps file -> line -> analyzer names ("*" for all)
// suppressed on that line.
type suppressions map[string]map[int]map[string]bool

// collectSuppressions gathers //lint:ignore directives. A directive
// suppresses matching findings on its own line and on the following
// line, so both trailing and leading comment placement work.
func collectSuppressions(p *Package) suppressions {
	sup := suppressions{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				rest, ok := strings.CutPrefix(strings.TrimSpace(text), "lint:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					// A reason is mandatory; a bare directive is ignored.
					continue
				}
				name := fields[0]
				pos := p.Fset.Position(c.Pos())
				byLine := sup[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					sup[pos.Filename] = byLine
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if byLine[line] == nil {
						byLine[line] = map[string]bool{}
					}
					byLine[line][name] = true
				}
			}
		}
	}
	return sup
}

func (s suppressions) suppressed(analyzer string, pos token.Position) bool {
	byLine, ok := s[pos.Filename]
	if !ok {
		return false
	}
	names := byLine[pos.Line]
	return names[analyzer] || names["*"]
}

// --- shared AST/type helpers ---

// importedPkgPath reports the import path when e is a package-qualifier
// identifier (e.g. the `time` in time.Now).
func importedPkgPath(info *types.Info, e ast.Expr) (string, bool) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return "", false
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path(), true
	}
	return "", false
}

// nodeContains reports whether the span of outer contains pos.
func nodeContains(outer ast.Node, pos token.Pos) bool {
	return outer != nil && outer.Pos() <= pos && pos < outer.End()
}
