package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
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

// moduleImporter resolves module import paths from the packages
// type-checked so far and delegates everything else (the standard
// library) to the compiler's export data, read by the gc importer.
type moduleImporter struct {
	gc   types.Importer
	pkgs map[string]*types.Package
}

// newImporter returns a moduleImporter whose standard-library export
// data comes from lookup; a nil lookup asks the go command per package.
func newImporter(fset *token.FileSet, lookup importer.Lookup) *moduleImporter {
	return &moduleImporter{
		gc:   importer.ForCompiler(fset, "gc", lookup),
		pkgs: map[string]*types.Package{},
	}
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	return m.gc.Import(path)
}

// listedPkg is one package of `go list -json`'s output.
type listedPkg struct {
	ImportPath, Dir, Export string
	GoFiles, Imports        []string
	Standard                bool
}

// loadModule parses and type-checks every non-test package of the module
// at root, in the order `go list -deps` prints them: each after its
// imports, the standard library's included, whose export data the same
// call lists. -e keeps a module that does not type-check loadable: its
// type errors are collected, not fatal.
func loadModule(root string) ([]*Package, error) {
	cmd := exec.Command("go", "list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,Imports,Standard", "./...")
	cmd.Dir = root
	out, err := cmd.Output()
	if ee, ok := err.(*exec.ExitError); ok {
		err = fmt.Errorf("%v\n%s", err, ee.Stderr)
	}
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v", err)
	}
	fset := token.NewFileSet()
	exports := map[string]string{}
	imp := newImporter(fset, func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	var pkgs []*Package
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("lint: go list: %v", err)
		}
		switch {
		case p.Standard:
			exports[p.ImportPath] = p.Export
		case len(p.GoFiles) > 0:
			files, err := parseFiles(fset, p.Dir, p.GoFiles)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, typeCheck(fset, imp, p.ImportPath, files, p.Imports))
		}
	}
}

// parseFiles parses the named files of dir, with comments (the
// //lint:ignore and //tango:hotpath directives live in them).
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// typeCheck runs go/types over one parsed, non-empty package, collecting (rather
// than failing on) type errors so syntactic analyzers still run, and
// serves the result to the packages checked after it.
func typeCheck(fset *token.FileSet, imp *moduleImporter, path string, files []*ast.File, imports []string) *Package {
	out := &Package{Name: files[0].Name.Name, Path: path, Fset: fset, Files: files, Imports: imports}
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
	out.Types, _ = conf.Check(path, fset, files, out.Info)
	imp.pkgs[path] = out.Types
	return out
}
