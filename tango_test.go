package tango_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tango"
	"tango/internal/lint"
)

// TestPublicAPIWorkflow walks the documented end-to-end workflow through
// the facade only.
func TestPublicAPIWorkflow(t *testing.T) {
	app := tango.XGCApp()
	field := app.Generate(129, 3)

	h, err := tango.DecomposeTensor(field, tango.RefactorOptions{
		Levels: 3,
		Bounds: []float64{0.1, 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.TotalEntries() == 0 || len(h.Rungs()) != 2 {
		t.Fatalf("hierarchy: %d entries, %d rungs", h.TotalEntries(), len(h.Rungs()))
	}

	node := tango.NewNode("node0")
	node.MustAddDevice(tango.SSD("ssd"))
	hdd := node.MustAddDevice(tango.HDD("hdd"))
	tango.LaunchTableIVNoise(node, hdd, 3)

	store, err := tango.StageScaled(h, node.Tiers(), 2048)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := tango.NewSession("analytics", store, tango.SessionConfig{
		Policy:       tango.CrossLayer,
		ErrorControl: true,
		Bound:        0.01,
		Priority:     tango.PriorityHigh,
		Steps:        12,
		Window:       5,
		RefitEvery:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Launch(node); err != nil {
		t.Fatal(err)
	}
	if err := node.Engine().Run(12*60 + 600); err != nil {
		t.Fatal(err)
	}
	sum := sess.Summary(5)
	if sum.Steps != 7 || sum.MeanIO <= 0 {
		t.Fatalf("summary: %+v", sum)
	}

	// Error control holds: every step's reconstruction meets the bound.
	for _, st := range sess.Stats() {
		if acc := h.Achieved(field, st.Cursor); acc > 0.01+1e-12 {
			t.Fatalf("step %d achieved %v > bound", st.Step, acc)
		}
	}
}

func TestDecomposeFromRawSlice(t *testing.T) {
	data := make([]float64, 64*64)
	for i := range data {
		data[i] = math.Sin(float64(i) / 17)
	}
	h, err := tango.Decompose(data, []int{64, 64}, tango.RefactorOptions{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	rec := h.Recompose(h.TotalEntries())
	orig := tango.TensorFromData(data, 64, 64)
	if rec.AbsDiffMax(orig) > 1e-12 {
		t.Fatal("round trip failed")
	}
}

func TestHierarchySerializationViaFacade(t *testing.T) {
	field := tango.GenASiSApp().Generate(65, 1)
	h, err := tango.DecomposeTensor(field, tango.RefactorOptions{Levels: 3, Bounds: []float64{0.05}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	h2, err := tango.DecodeHierarchy(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2.TotalEntries() != h.TotalEntries() {
		t.Fatal("mismatch after decode")
	}
}

func TestAppsViaFacade(t *testing.T) {
	if len(tango.Apps()) != 3 {
		t.Fatal("want 3 apps")
	}
	for _, app := range tango.Apps() {
		f := app.Generate(64, 9)
		if app.OutcomeErr(f, f.Clone()) > 1e-9 {
			t.Fatalf("%s: nonzero self outcome error", app.Name)
		}
	}
}

func TestTableIVNoiseClamped(t *testing.T) {
	if got := len(tango.TableIVNoise()); got != 6 {
		t.Fatalf("noise set = %d", got)
	}
	node := tango.NewNode("n")
	hdd := node.MustAddDevice(tango.HDD("hdd"))
	if got := len(tango.LaunchTableIVNoise(node, hdd, 99)); got != 6 {
		t.Fatalf("launched %d", got)
	}
}

func TestLevelsForRatioFacade(t *testing.T) {
	if tango.LevelsForRatio(16, 2, 2) != 3 {
		t.Fatal("LevelsForRatio")
	}
}

// TestTangolintSelfCheck runs the project's static analyzers (see
// docs/determinism.md) over the repository's own source and requires
// zero findings, so the determinism and lock-discipline invariants hold
// on every `go test ./...` — not only when CI runs tangolint.
//
// lint.Run reads the sources in a `go list` child process, whose reads
// go test's result cache does not see. Listing every package directory
// here first puts them in the cache key, so a new, edited or deleted file
// or a new directory voids a cached pass. The walk stays out of testdata,
// dot and underscore directories, which `go list ./...` does not read
// either.
func TestTangolintSelfCheck(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if n := d.Name(); err == nil && d.IsDir() && path != "." &&
			(n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
			return filepath.SkipDir
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.Run(lint.Options{Root: "."})
	if err != nil {
		t.Fatalf("tangolint: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Fatalf("tangolint found %d finding(s); fix them or add a reasoned //lint:ignore", len(findings))
	}
}

// TestNoMachineLocalPathsInTests keeps review scratch out of the suite:
// a test that reads a fixture from an absolute /tmp, /home or /root path
// (or from under $HOME) passes only on the machine that wrote it and
// breaks tier-1 everywhere else. t.TempDir() and in-repo testdata are
// the allowed ways.
func TestNoMachineLocalPathsInTests(t *testing.T) {
	const home = "HOME"
	machineLocal := func(s string) bool {
		for _, dir := range []string{"tmp", "home", "root"} {
			if strings.HasPrefix(s, "/"+dir+"/") {
				return true
			}
		}
		return strings.Contains(s, "$"+home) || strings.Contains(s, "${"+home)
	}
	isOS := func(e ast.Expr, names ...string) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != "os" {
			return false
		}
		for _, n := range names {
			if sel.Sel.Name == n {
				return true
			}
		}
		return false
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if n.Kind != token.STRING {
					break
				}
				if s, err := strconv.Unquote(n.Value); err == nil && machineLocal(s) {
					t.Errorf("%s: machine-local path %s in a test; use t.TempDir() or testdata", fset.Position(n.Pos()), n.Value)
				}
			case *ast.CallExpr:
				if isOS(n.Fun, "UserHomeDir") {
					t.Errorf("%s: os.UserHomeDir in a test; use t.TempDir()", fset.Position(n.Pos()))
				}
				if isOS(n.Fun, "Getenv", "LookupEnv") && len(n.Args) == 1 {
					if lit, ok := n.Args[0].(*ast.BasicLit); ok && lit.Value == strconv.Quote(home) {
						t.Errorf("%s: test reads $%s; use t.TempDir()", fset.Position(n.Pos()), home)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNoLocksInProductCode keeps shared state in types that synchronise
// themselves (atomics, channels, sync.Map, sync.OnceValue): no product
// file holds a sync.Mutex or sync.RWMutex or a `// guarded by` field,
// because no analyzer checks lock discipline any more. benchmarks/ is
// exempt: it has its own frozen tracer lock.
func TestNoLocksInProductCode(t *testing.T) {
	lock := regexp.MustCompile(`sync\.(RW)?Mutex|//\s*guarded by`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "benchmarks" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if m := lock.FindString(line); m != "" {
				t.Errorf("%s:%d: %q: hold shared state in a type that synchronises itself, "+
					"or restore the locksafety analyzer (internal/lint/locksafety.go) from git history in the same change", path, i+1, m)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
