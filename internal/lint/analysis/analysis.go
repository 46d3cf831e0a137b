// Package analysis is the core of checkmate-lint: a small, stdlib-only
// analogue of golang.org/x/tools/go/analysis. The container this repo builds
// in has no module proxy access, so instead of importing x/tools the suite
// defines the same shape — Analyzer, Pass, Diagnostic — over go/ast and
// go/types, with packages loaded through `go list -export` (internal/lint/load).
// Analyzers written against this package read like x/tools analyzers and
// could be ported to the real framework by changing imports.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check: a name, what invariant it encodes,
// and a Run function applied to one package at a time.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// directives. Lower-case, no spaces.
	Name string
	// Doc states the invariant the analyzer enforces (first line is the
	// summary shown by checkmate-lint -list).
	Doc string
	// Directives lists extra directive names (beyond "allow <Name>") that
	// suppress this analyzer's diagnostics on the annotated line, e.g.
	// ctxpropagate accepts //lint:detach.
	Directives []string
	// Run performs the check. Diagnostics go through pass.Report; the error
	// return is for analysis failures, not findings.
	Run func(*Pass) error
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Syntax    []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
	dirs   map[*ast.File]*Directives
}

// NewPass assembles a Pass; report receives the (directive-filtered)
// diagnostics.
func NewPass(a *Analyzer, fset *token.FileSet, syntax []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) *Pass {
	return &Pass{Analyzer: a, Fset: fset, Syntax: syntax, Pkg: pkg, TypesInfo: info, report: report}
}

// Report emits one diagnostic unless a //lint: directive on (or directly
// above) its line suppresses it.
func (p *Pass) Report(d Diagnostic) {
	if p.suppressed(d.Pos) {
		return
	}
	p.report(d)
}

// Reportf is Report with formatting.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// suppressed reports whether pos sits on a line annotated for this analyzer
// (either //lint:allow <name> or one of the analyzer's own directives).
func (p *Pass) suppressed(pos token.Pos) bool {
	f := p.fileFor(pos)
	if f == nil {
		return false
	}
	if p.dirs == nil {
		p.dirs = make(map[*ast.File]*Directives)
	}
	d, ok := p.dirs[f]
	if !ok {
		d = ParseDirectives(p.Fset, f)
		p.dirs[f] = d
	}
	line := p.Fset.Position(pos).Line
	if d.Allows(line, "allow "+p.Analyzer.Name) {
		return true
	}
	for _, name := range p.Analyzer.Directives {
		if d.Allows(line, name) {
			return true
		}
	}
	return false
}

func (p *Pass) fileFor(pos token.Pos) *ast.File {
	for _, f := range p.Syntax {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// PathHasSegments reports whether the import path contains segs as
// consecutive path segments — e.g. PathHasSegments("repro/internal/service/store",
// "internal", "service") is true. Matching on segments (not substrings)
// keeps scopes exact while letting analyzer testdata packages, whose import
// paths end in .../testdata/src/internal/service, fall inside the scopes
// they exercise.
func PathHasSegments(path string, segs ...string) bool {
	if len(segs) == 0 {
		return true
	}
	parts := strings.Split(path, "/")
	for i := 0; i+len(segs) <= len(parts); i++ {
		match := true
		for j, s := range segs {
			if parts[i+j] != s {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}
