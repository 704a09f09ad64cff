package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches fixture expectations: // want <analyzer> "substr"
var wantRe = regexp.MustCompile(`// want (\w+) "([^"]+)"`)

type wantLine struct {
	file     string
	line     int
	analyzer string
	substr   string
	matched  bool
}

func parseWants(t *testing.T, dir string) []*wantLine {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*wantLine
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				wants = append(wants, &wantLine{
					file: path, line: line, analyzer: m[1], substr: m[2],
				})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return wants
}

// TestFixtures runs each analyzer over its seeded-violation corpus and
// checks findings against the inline `// want` expectations, both ways:
// every want must be found, and every finding must be wanted.
func TestFixtures(t *testing.T) {
	cases := []struct {
		dir      string
		analyzer string
		deps     []FixtureDir
	}{
		{"simdet", "detertaint", nil},
		{"locks", "locksafety", nil},
		{"errs", "errdiscard", nil},
		{"hotfix", "hotpath", []FixtureDir{traceStub}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.analyzer, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.dir)
			opts := Options{
				Analyzers: []string{tc.analyzer},
				// The simdet fixture plays a sim-driven package.
				SimPackages: append(append([]string{}, DefaultSimPackages...), "simdet"),
			}
			dirs := append(append([]FixtureDir{}, tc.deps...), FixtureDir{dir, "tango/internal/fixture/" + tc.dir})
			findings, pkgs, err := CheckFixtureProgram(dirs, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkgs {
				if len(p.TypeErrs) > 0 {
					t.Fatalf("fixture %s does not type-check: %v", p.Path, p.TypeErrs)
				}
			}
			wants := parseWants(t, dir)
			if len(wants) < 2 {
				t.Fatalf("fixture %s must seed at least 2 violations, has %d", tc.dir, len(wants))
			}
			for _, f := range findings {
				if f.Analyzer != tc.analyzer {
					t.Errorf("unexpected analyzer %q in finding %s", f.Analyzer, f)
				}
			}
			matchWants(t, findings, wants)
		})
	}
}

// traceStub stands in for tango/internal/trace in the hotfix fixture.
var traceStub = FixtureDir{Dir: filepath.Join("testdata", "src", "tracestub"), ImportPath: "tango/internal/trace"}

// matchWants asserts findings against `// want` expectations both ways:
// every want must be found, and every finding must be wanted.
func matchWants(t *testing.T, findings []Finding, wants []*wantLine) {
	t.Helper()
	for _, f := range findings {
		ok := false
		for _, w := range wants {
			if !w.matched && w.line == f.Pos.Line && filepath.Base(w.file) == filepath.Base(f.Pos.Filename) &&
				w.analyzer == f.Analyzer && strings.Contains(f.Message, w.substr) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unwanted finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing finding at %s:%d matching [%s] %q", w.file, w.line, w.analyzer, w.substr)
		}
	}
}

// TestDeterTaintFixture loads the tickutil helper and a sim package as
// one program, so the taint chain crosses a package boundary exactly the
// way a real helper package would smuggle a wall-clock read past the
// per-package scan. Every detertaint finding must carry a non-empty
// witness chain. The bothfix case is a function that holds a local
// source and a frontier call: matchWants holds detertaint to one finding
// each, so nothing is reported twice.
func TestDeterTaintFixture(t *testing.T) {
	for _, dir := range []string{"detfix", "bothfix"} {
		t.Run(dir, func(t *testing.T) {
			dirs := []FixtureDir{
				{Dir: filepath.Join("testdata", "src", "tickutil"), ImportPath: "tango/internal/fixture/tickutil"},
				{Dir: filepath.Join("testdata", "src", dir), ImportPath: "tango/internal/fixture/" + dir},
			}
			opts := Options{
				Analyzers:   []string{"detertaint"},
				SimPackages: append(append([]string{}, DefaultSimPackages...), dir),
			}
			findings, pkgs, err := CheckFixtureProgram(dirs, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkgs {
				if len(p.TypeErrs) > 0 {
					t.Fatalf("fixture %s does not type-check: %v", p.Path, p.TypeErrs)
				}
			}
			var wants []*wantLine
			for _, d := range dirs {
				wants = append(wants, parseWants(t, d.Dir)...)
			}
			if len(wants) != 2 {
				t.Fatalf("fixture %s seeds %d violations, want 2", dir, len(wants))
			}
			matchWants(t, findings, wants)
			for _, f := range findings {
				if len(f.Witness) == 0 {
					t.Errorf("detertaint finding without witness: %s", f)
				}
			}
		})
	}
}

// TestHotpathWitness pins the acceptance contract for transitive hotpath
// findings: a violation in a function reached through a call chain must
// name the whole chain from the annotated root.
func TestHotpathWitness(t *testing.T) {
	dir := filepath.Join("testdata", "src", "hotfix")
	findings, _, err := CheckFixtureProgram([]FixtureDir{traceStub, {dir, "tango/internal/fixture/hotfix"}}, Options{Analyzers: []string{"hotpath"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("hotfix fixture produced no findings")
	}
	deep := false
	for _, f := range findings {
		if len(f.Witness) == 0 {
			t.Errorf("hotpath finding without witness: %s", f)
			continue
		}
		if f.Witness[0] != "(*hotfix.Sink).Emit" {
			t.Errorf("witness does not start at the annotated root: %v", f.Witness)
		}
		if len(f.Witness) >= 3 {
			deep = true
		}
	}
	if !deep {
		t.Error("no finding carries a multi-hop call-chain witness (root → … → violating function)")
	}
}

// TestSuppressionRequiresReason checks that a bare //lint:ignore (no
// reason) does NOT suppress, while a reasoned one does. The reasoned
// case is already exercised by the simdet fixture; here the degenerate
// directive is synthesized.
func TestSuppressionRequiresReason(t *testing.T) {
	dir := t.TempDir()
	src := `package simdet

import "time"

func f() int64 {
	//lint:ignore detertaint
	return time.Now().UnixNano()
}
`
	if err := os.WriteFile(filepath.Join(dir, "f.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Analyzers:   []string{"detertaint"},
		SimPackages: []string{"simdet"},
	}
	findings, _, err := CheckFixtureProgram([]FixtureDir{{dir, "tango/internal/fixture/noreason"}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("bare lint:ignore must not suppress; got %d findings, want 1", len(findings))
	}
}

// TestFindingFormat pins the CLI output contract: file:line: [analyzer]
// message.
func TestFindingFormat(t *testing.T) {
	f := Finding{Analyzer: "locksafety", Message: "m"}
	f.Pos.Filename = "a/b.go"
	f.Pos.Line = 12
	if got, want := f.String(), "a/b.go:12: [locksafety] m"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestAnalyzerNames guards the documented analyzer set.
func TestAnalyzerNames(t *testing.T) {
	want := []string{"detertaint", "locksafety", "errdiscard", "hotpath"}
	got := AnalyzerNames()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("AnalyzerNames() = %v, want %v", got, want)
	}
	for _, n := range want {
		if AnalyzerDoc(n) == "" {
			t.Errorf("analyzer %s has no doc", n)
		}
	}
}

// TestRunUnknownAnalyzer checks option validation, including the names
// of the analyzers folded into others, left to go vet and -race, or
// deleted because every lock is a leaf (lockorder).
func TestRunUnknownAnalyzer(t *testing.T) {
	for _, name := range []string{"nope", "simdeterminism", "parhygiene", "lockorder"} {
		_, err := Run(Options{Root: "../..", Analyzers: []string{name}})
		if err == nil || !strings.Contains(err.Error(), "unknown analyzer") || !strings.Contains(err.Error(), "(have detertaint, ") {
			t.Fatalf("-analyzers %s: want unknown-analyzer error, got %v", name, err)
		}
	}
}

// BenchmarkLintRepo measures a full-repo run of every analyzer —
// module load, type check, call-graph construction and all four
// analyzers. The whole-repo budget is a few seconds (the CI lint gate runs
// this exact configuration).
func BenchmarkLintRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(Options{Root: "../.."}); err != nil {
			b.Fatal(err)
		}
	}
}
