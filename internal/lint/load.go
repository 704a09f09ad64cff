package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Package is one type-checked module package presented to analyzers.
type Package struct {
	Name     string // package name (clause)
	Path     string // import path
	Fset     *token.FileSet
	Files    []*ast.File
	Imports  []string // import paths of the package's files, sorted
	Types    *types.Package
	Info     *types.Info
	TypeErrs []error
}

// moduleImporter resolves module-local import paths from the packages
// type-checked so far and delegates everything else (stdlib) to the
// go/importer source importer, which parses $GOROOT sources — keeping the
// whole pipeline free of external dependencies and of the go command.
type moduleImporter struct {
	src  types.ImporterFrom
	pkgs map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	return m.src.ImportFrom(path, dir, mode)
}

// modulePath reads the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// skipDir reports whether a directory name is never analyzed.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		(strings.HasPrefix(name, ".") && name != ".") || name == "_"
}

type parsedPkg struct {
	name    string
	path    string
	files   []*ast.File
	imports []string // sorted, deduplicated
}

// parseDir parses the non-test Go files of one directory into a single
// package. Returns nil if the directory holds no non-test Go files.
func parseDir(fset *token.FileSet, dir string) (*parsedPkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") ||
			strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, nil
	}
	slices.Sort(names)
	p := &parsedPkg{}
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if p.name == "" {
			p.name = f.Name.Name
		}
		p.files = append(p.files, f)
		for _, imp := range f.Imports {
			p.imports = append(p.imports, strings.Trim(imp.Path.Value, `"`))
		}
	}
	slices.Sort(p.imports)
	p.imports = slices.Compact(p.imports)
	return p, nil
}

// loadModule discovers, parses, and type-checks every non-test package
// under root, in dependency order.
func loadModule(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()

	var pkgs []*parsedPkg
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		p, err := parseDir(fset, path)
		if err != nil || p == nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		p.path = mod
		if rel != "." {
			p.path = mod + "/" + filepath.ToSlash(rel)
		}
		pkgs = append(pkgs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}

	byPath := make(map[string]*parsedPkg, len(pkgs))
	for _, p := range pkgs {
		byPath[p.path] = p
	}

	order, err := topoSort(pkgs, byPath)
	if err != nil {
		return nil, err
	}

	imp := &moduleImporter{
		src:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*types.Package{},
	}
	var out []*Package
	for _, p := range order {
		pkg := typeCheck(fset, p, imp)
		imp.pkgs[p.path] = pkg.Types
		out = append(out, pkg)
	}
	return out, nil
}

// topoSort orders packages so that every package follows its imports
// among them.
func topoSort(pkgs []*parsedPkg, byPath map[string]*parsedPkg) ([]*parsedPkg, error) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := map[string]int{}
	var order []*parsedPkg
	var visit func(p *parsedPkg) error
	visit = func(p *parsedPkg) error {
		switch state[p.path] {
		case gray:
			return fmt.Errorf("lint: import cycle through %s", p.path)
		case black:
			return nil
		}
		state[p.path] = gray
		for _, ip := range p.imports {
			if dep, ok := byPath[ip]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[p.path] = black
		order = append(order, p)
		return nil
	}
	for _, p := range pkgs {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// typeCheck runs go/types over one parsed package, collecting (rather
// than failing on) type errors so syntactic analyzers still run.
func typeCheck(fset *token.FileSet, p *parsedPkg, imp types.ImporterFrom) *Package {
	out := &Package{
		Name: p.name, Path: p.path,
		Fset: fset, Files: p.files, Imports: p.imports,
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { out.TypeErrs = append(out.TypeErrs, err) },
	}
	out.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	tpkg, _ := conf.Check(p.path, fset, p.files, out.Info)
	if tpkg == nil {
		tpkg = types.NewPackage(p.path, p.name)
	}
	out.Types = tpkg
	return out
}
