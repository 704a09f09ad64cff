package lint

import (
	"fmt"
	"go/token"
	"os"
	"slices"
	"strconv"
	"strings"
)

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
	pkgs, err := loadFixtureDirs(dirs)
	if err != nil {
		return nil, nil, err
	}
	findings := analyze(NewProgram(pkgs), opts.config())
	sortFindings(findings)
	return findings, pkgs, nil
}

// loadFixtureDirs loads standalone directories as one program under
// synthetic import paths, in the given order — later directories may
// import earlier ones (everything else resolves to the stdlib, through
// the go command's export data). Used for fixture corpora, including the
// cross-package chains the interprocedural analyzers need.
func loadFixtureDirs(dirs []FixtureDir) ([]*Package, error) {
	fset := token.NewFileSet()
	imp := newImporter(fset, nil)
	var out []*Package
	for _, fd := range dirs {
		entries, err := os.ReadDir(fd.Dir)
		if err != nil {
			return nil, err
		}
		var names []string
		for _, e := range entries {
			if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				names = append(names, n)
			}
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("lint: no Go files in %s", fd.Dir)
		}
		files, err := parseFiles(fset, fd.Dir, names)
		if err != nil {
			return nil, err
		}
		var imports []string
		for _, f := range files {
			for _, is := range f.Imports {
				path, _ := strconv.Unquote(is.Path.Value)
				imports = append(imports, path)
			}
		}
		slices.Sort(imports)
		out = append(out, typeCheck(fset, imp, fd.ImportPath, files, slices.Compact(imports)))
	}
	return out, nil
}
