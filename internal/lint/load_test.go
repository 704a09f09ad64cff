package lint

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadModuleHonoursBuildConstraints: a file the build excludes is not
// linted. gen.go is a `//go:build ignore` file of a sim package that reads
// the clock; linting it would report a source no build of the package
// contains.
func TestLoadModuleHonoursBuildConstraints(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":     "module tmpmod\n\ngo 1.23\n",
		"sim/a.go":   "package sim\n\nfunc A() int { return 1 }\n",
		"sim/gen.go": "//go:build ignore\n\npackage sim\n\nimport \"time\"\n\nvar start = time.Now()\n",
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	findings, err := Run(Options{Root: root, SimPackages: []string{"sim"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("finding in a build-excluded file: %s", f)
	}
}

// TestLoadModulePackages holds the loader to the repository's package
// directories, every directory holding non-test Go outside testdata, dot
// and underscore directories (cmd/, examples/ and benchmarks/ included),
// each loaded once and after every module package it imports.
func TestLoadModulePackages(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch n := d.Name(); {
		case err != nil:
			return err
		case d.IsDir() && path != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")):
			return filepath.SkipDir
		case strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go"):
			want[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	module := map[string]bool{}
	for _, p := range pkgs {
		module[p.Path] = true
	}
	loaded := map[string]bool{}
	for _, p := range pkgs {
		dir := filepath.Dir(p.Fset.File(p.Files[0].Pos()).Name())
		if !want[dir] {
			t.Errorf("%s loaded from %s, which is not a package directory or was loaded twice", p.Path, dir)
		}
		delete(want, dir)
		for _, imp := range p.Imports {
			if module[imp] && !loaded[imp] {
				t.Errorf("%s loaded before its import %s", p.Path, imp)
			}
		}
		loaded[p.Path] = true
	}
	for dir := range want {
		t.Errorf("package directory %s not loaded", dir)
	}
	if len(pkgs) < 2 {
		t.Fatalf("loaded %d packages from %s", len(pkgs), root)
	}
}
