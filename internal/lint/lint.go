// Package lint implements tangolint, the project's static-analysis
// suite. It enforces the cross-cutting correctness rules the simulator's
// results depend on (see docs/determinism.md):
//
//   - detertaint: sim-driven packages must not consult wall clocks,
//     global math/rand state, map iteration order or a multi-way select,
//     neither directly nor through any function they call.
//   - locksafety: no Lock without an Unlock on every return path, no
//     access to `// guarded by <mu>` fields outside a critical section.
//     (Copied locks are `go vet`'s copylocks check. There is no
//     lock-order check: every lock is a leaf, taken with no other held.)
//   - errdiscard: internal packages must not silently drop error returns.
//   - hotpath: nothing reachable from a //tango:hotpath function may
//     allocate per call.
//
// The implementation uses only the standard library (go/ast, go/parser,
// go/types); go.mod stays dependency-free. Findings can be suppressed
// with an explanatory comment on the offending line or the line above:
//
//	//lint:ignore <analyzer> <reason>
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
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
	// Dirs, when non-empty, restricts *reported* packages to those whose
	// module-relative directory equals or is under one of the entries.
	// All packages are still loaded (imports must type-check).
	Dirs []string
	// Analyzers, when non-empty, restricts which analyzers run.
	Analyzers []string
	// SimPackages overrides the package names subject to detertaint.
	SimPackages []string
}

// DefaultSimPackages are the sim-driven package names in which
// wall-clock time, global randomness, and map-order dependence are
// forbidden (DESIGN.md: the discrete-event engine and everything it
// schedules must be bit-reproducible for a fixed seed).
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
	doc  string
	run  func(prog *Program, cfg *config, report progReportFunc)
}

// config is the resolved per-run analyzer configuration.
type config struct {
	simPackages map[string]bool
}

func analyzers() []*analyzer {
	return []*analyzer{
		{
			name: "detertaint",
			doc:  "forbid wall-clock time, global math/rand, map-order-dependent emission and multi-way selects in sim-driven packages, written there or reached through the call graph",
			run:  runDeterTaint,
		},
		{
			name: "locksafety",
			doc:  "forbid unbalanced Lock/Unlock and unguarded access to `// guarded by <mu>` fields (copied locks are go vet's)",
			run:  runLockSafety,
		},
		{
			name: "errdiscard",
			doc:  "forbid silently discarded error returns in internal packages",
			run:  runErrDiscard,
		},
		{
			name: "hotpath",
			doc:  "forbid allocation-inducing constructs in functions reachable from //tango:hotpath annotations",
			run:  runHotPath,
		},
	}
}

// AnalyzerNames lists the available analyzers.
func AnalyzerNames() []string {
	var names []string
	for _, a := range analyzers() {
		names = append(names, a.name)
	}
	return names
}

// AnalyzerDoc returns the one-line documentation for an analyzer name.
func AnalyzerDoc(name string) string {
	for _, a := range analyzers() {
		if a.name == name {
			return a.doc
		}
	}
	return ""
}

func (o *Options) resolved() (*config, []*analyzer, error) {
	sim := o.SimPackages
	if sim == nil {
		sim = DefaultSimPackages
	}
	cfg := &config{simPackages: map[string]bool{}}
	for _, n := range sim {
		cfg.simPackages[n] = true
	}
	all := analyzers()
	if len(o.Analyzers) == 0 {
		return cfg, all, nil
	}
	byName := map[string]*analyzer{}
	for _, a := range all {
		byName[a.name] = a
	}
	var sel []*analyzer
	for _, n := range o.Analyzers {
		a, ok := byName[n]
		if !ok {
			return nil, nil, fmt.Errorf("lint: unknown analyzer %q (have %s)", n, strings.Join(AnalyzerNames(), ", "))
		}
		sel = append(sel, a)
	}
	return cfg, sel, nil
}

// Run loads the module at opts.Root and applies the analyzers, returning
// unsuppressed findings sorted by position. Every analyzer sees the whole
// program (the interprocedural ones need cross-package evidence); the
// findings are filtered to the selected directories afterwards.
func Run(opts Options) ([]Finding, error) {
	cfg, sel, err := opts.resolved()
	if err != nil {
		return nil, err
	}
	pkgs, err := loadModule(opts.Root)
	if err != nil {
		return nil, err
	}
	byDir := map[string]*Package{}
	for _, p := range pkgs {
		byDir[p.Dir] = p
	}
	var findings []Finding
	for _, f := range analyze(NewProgram(pkgs), cfg, sel) {
		if p, ok := byDir[filepath.Dir(f.Pos.Filename)]; ok && !dirSelected(p.RelDir, opts.Dirs) {
			continue
		}
		findings = append(findings, f)
	}
	sortFindings(findings)
	return findings, nil
}

// FixtureDir names one fixture directory and the synthetic import path it
// is loaded under (fixture corpora live outside the module build graph,
// under testdata/).
type FixtureDir struct {
	Dir        string
	ImportPath string
}

// CheckFixtureProgram loads several standalone directories as one
// program, in order (later directories may import earlier ones by their
// synthetic paths), and applies the analyzers. Fixture corpora for the
// call-graph analyzers use this to seed cross-package chains.
func CheckFixtureProgram(dirs []FixtureDir, opts Options) ([]Finding, []*Package, error) {
	cfg, sel, err := opts.resolved()
	if err != nil {
		return nil, nil, err
	}
	pkgs, err := loadFixtureDirs(dirs)
	if err != nil {
		return nil, nil, err
	}
	findings := analyze(NewProgram(pkgs), cfg, sel)
	sortFindings(findings)
	return findings, pkgs, nil
}

// analyze runs the analyzers over the program, applying //lint:ignore
// suppressions from every package.
func analyze(prog *Program, cfg *config, sel []*analyzer) []Finding {
	sup := suppressions{}
	for _, p := range prog.Pkgs {
		for file, byLine := range collectSuppressions(p) {
			sup[file] = byLine
		}
	}
	var findings []Finding
	for _, a := range sel {
		a := a
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

func dirSelected(relDir string, dirs []string) bool {
	if len(dirs) == 0 {
		return true
	}
	for _, d := range dirs {
		d = filepath.Clean(d)
		if d == "." || relDir == d || strings.HasPrefix(relDir, d+string(filepath.Separator)) {
			return true
		}
	}
	return false
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

// exprText renders an expression compactly for messages and for keying
// mutexes by their receiver chain (e.g. "a.mu").
func exprText(e ast.Expr) string {
	return types.ExprString(e)
}
