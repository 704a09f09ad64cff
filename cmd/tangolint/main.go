// Command tangolint runs the project's static-analysis suite (package
// internal/lint) over the module source and reports findings as
//
//	file:line: [analyzer] message
//
// exiting non-zero when anything is found. See docs/determinism.md for
// the rules and the //lint:ignore escape hatch.
//
// With -json, findings are emitted instead as one JSON array of
//
//	{"file": ..., "line": ..., "analyzer": ..., "message": ..., "witness": [...]}
//
// objects (witness is the call-chain evidence the interprocedural
// analyzers attach), which is what CI archives as its lint artifact.
//
// Every analyzer runs over the whole module; ./... may be named, nothing
// else. Usage:
//
//	tangolint [-json] [./...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"tango/internal/lint"
)

// jsonFinding is the -json wire format, one object per finding. File is
// module-root-relative with forward slashes, so artifacts diff cleanly
// across machines.
type jsonFinding struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Analyzer string   `json:"analyzer"`
	Message  string   `json:"message"`
	Witness  []string `json:"witness,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("tangolint", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	fs.Usage = func() { fmt.Fprintln(fs.Output(), "usage: tangolint [-json] [./...]") }
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if fs.NArg() > 1 || fs.NArg() == 1 && fs.Arg(0) != "./..." {
		fs.Usage()
		return 2
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tangolint:", err)
		return 2
	}
	findings, err := lint.Run(lint.Options{Root: root})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tangolint:", err)
		return 2
	}
	relFile := func(name string) string {
		rel, err := filepath.Rel(root, name)
		if err != nil {
			return name
		}
		return filepath.ToSlash(rel)
	}
	if *jsonOut {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File:     relFile(f.Pos.Filename),
				Line:     f.Pos.Line,
				Analyzer: f.Analyzer,
				Message:  f.Message,
				Witness:  f.Witness,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "tangolint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d: [%s] %s\n", relFile(f.Pos.Filename), f.Pos.Line, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "tangolint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
