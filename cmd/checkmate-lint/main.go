// Command checkmate-lint runs the project's static-analysis suite: the
// analyzers in internal/lint that machine-check invariants the codebase
// relies on (context propagation, goroutine panic containment, closed
// metric-label vocabularies, structured logging, float-comparison hygiene)
// plus nilcheck, a vet-style pass. It exits 0 when the tree is clean, 1 on
// findings, and 2 when packages fail to load, so CI can gate on it directly:
//
//	go run ./cmd/checkmate-lint ./...
//
// Diagnostics print as file:line:col: message (analyzer), relative to the
// working directory, which editors and CI annotations both understand.
// See docs/lint.md for the analyzer catalogue and the //lint: directives
// that suppress individual findings.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("checkmate-lint", flag.ContinueOnError)
	list := fs.Bool("list", false, "list the analyzers in the suite and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: checkmate-lint [-list] [-only a,b] [packages]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "checkmate-lint: unknown analyzer %q (try -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	findings, err := lint.Check(".", patterns, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "checkmate-lint: %v\n", err)
		return 2
	}
	if len(findings) == 0 {
		return 0
	}
	wd, _ := os.Getwd()
	for _, f := range findings {
		fmt.Printf("%s:%d:%d: %s (%s)\n", relPath(wd, f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
	}
	fmt.Fprintf(os.Stderr, "checkmate-lint: %d finding(s)\n", len(findings))
	return 1
}

// relPath shortens name to a working-directory-relative path when that is
// actually shorter, keeping diagnostics clickable in editors and CI logs.
func relPath(wd, name string) string {
	if wd == "" {
		return name
	}
	if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}
