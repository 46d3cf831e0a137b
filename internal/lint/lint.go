// Package lint assembles the checkmate-lint analyzer suite: project-specific
// analyzers that machine-check invariants the codebase relies on (context
// propagation, goroutine panic containment, closed metric-label vocabularies,
// structured logging, float-comparison hygiene) plus nilcheck, a vet-style
// pass that `go vet` does not run. See docs/lint.md for the catalogue.
package lint

import (
	"go/token"
	"sort"

	"repro/internal/lint/analysis"
	"repro/internal/lint/ctxpropagate"
	"repro/internal/lint/floateq"
	"repro/internal/lint/gorecover"
	"repro/internal/lint/load"
	"repro/internal/lint/metriclabels"
	"repro/internal/lint/nilcheck"
	"repro/internal/lint/structuredlog"
)

// All returns the full analyzer suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxpropagate.Analyzer,
		gorecover.Analyzer,
		metriclabels.Analyzer,
		structuredlog.Analyzer,
		floateq.Analyzer,
		nilcheck.Analyzer,
	}
}

// Check loads the packages matched by patterns (relative to dir) and runs
// the analyzers over them — the one-call form the checkmate-lint command
// and integration tests use.
func Check(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]Finding, error) {
	prog, err := load.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return Run(prog, analyzers)
}

// Finding is one resolved diagnostic: position, message, and the analyzer
// that produced it.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// Run applies each analyzer to every target package of prog and returns the
// findings sorted by position. Analyzer errors abort the run.
func Run(prog *load.Program, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range prog.Targets() {
		for _, a := range analyzers {
			report := func(d analysis.Diagnostic) {
				findings = append(findings, Finding{
					Analyzer: a.Name,
					Pos:      prog.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			pass := analysis.NewPass(a, prog.Fset, pkg.Syntax, pkg.Types, pkg.TypesInfo, report)
			if err := a.Run(pass); err != nil {
				return nil, err
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
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
	return findings, nil
}
