package lint

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
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
// import earlier ones (everything else resolves to the stdlib). Used for
// fixture corpora, including the cross-package chains the interprocedural
// analyzers need.
func loadFixtureDirs(dirs []FixtureDir) ([]*Package, error) {
	fset := token.NewFileSet()
	imp := &moduleImporter{
		src:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*types.Package{},
	}
	var out []*Package
	for _, fd := range dirs {
		p, err := parseDir(fset, fd.Dir)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("lint: no Go files in %s", fd.Dir)
		}
		p.path = fd.ImportPath
		pkg := typeCheck(fset, p, imp)
		imp.pkgs[fd.ImportPath] = pkg.Types
		out = append(out, pkg)
	}
	return out, nil
}
