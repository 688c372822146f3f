// Package analysis is repolint's analyzer framework: a compact offline
// reimplementation of the golang.org/x/tools/go/analysis surface the
// suite needs, plus the repo-specific scope rules that decide which
// packages each invariant binds.
//
// The invariants themselves (see the sibling packages determinism,
// poolsafe, simpure and errflow) encode conventions this repo otherwise
// enforces only by review: bit-reproducible simulations, the pooled
// message lifecycle, the sim/live split, and error propagation on the
// consistent-prefix recovery paths.
//
// Any finding can be suppressed in place with a directive comment:
//
//	//repolint:allow <rule> <reason>
//
// on the flagged line or the line above it. The reason is mandatory —
// a bare allow is itself a diagnostic — so every exemption documents
// why the invariant does not apply.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"repro/internal/analysis/load"
)

// An Analyzer is one named invariant checker.
type Analyzer struct {
	Name string // rule name used in diagnostics and allow directives
	Doc  string // one-paragraph description for help output
	Run  func(*Pass)
}

// A Pass carries one package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a finding unless an allow directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Finding is a resolved diagnostic as emitted by Run.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Rule, f.Message)
}

// directive is one parsed //repolint:allow comment.
type directive struct {
	line   int
	rule   string
	reason string
}

var directiveRE = regexp.MustCompile(`^//repolint:allow(?:\s+(\S+))?\s*(.*)$`)

// parseDirectives scans a file for //repolint:allow comments. Malformed
// directives (missing rule or reason) are reported through report as
// rule "repolint" findings.
func parseDirectives(fset *token.FileSet, f *ast.File, report func(Finding)) []directive {
	var ds []directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, "//repolint:") {
				continue
			}
			pos := fset.Position(c.Pos())
			m := directiveRE.FindStringSubmatch(c.Text)
			if m == nil {
				report(Finding{Pos: pos, Rule: "repolint", Message: fmt.Sprintf("unrecognized repolint directive %q", c.Text)})
				continue
			}
			rule, reason := m[1], strings.TrimSpace(m[2])
			if rule == "" {
				report(Finding{Pos: pos, Rule: "repolint", Message: "repolint:allow directive is missing a rule name"})
				continue
			}
			if reason == "" {
				report(Finding{Pos: pos, Rule: "repolint", Message: fmt.Sprintf("repolint:allow %s requires a reason: //repolint:allow %s <why this is safe>", rule, rule)})
				continue
			}
			ds = append(ds, directive{line: pos.Line, rule: rule, reason: reason})
		}
	}
	return ds
}

// allowed reports whether a directive for rule covers line: directives
// apply to their own line (trailing comment) and to the line below
// (comment on its own line above the flagged statement).
func allowed(ds []directive, rule string, line int) bool {
	for _, d := range ds {
		if d.rule == rule && (d.line == line || d.line == line-1) {
			return true
		}
	}
	return false
}

// Run executes every analyzer over every package and returns the
// surviving findings sorted by position. Allow directives are resolved
// here so individual analyzers stay oblivious to suppression.
//
// Test files are exempt across the board: _test.go code links into the
// test binary, not the sim binary, so it is neither sim-reachable nor
// on a recovery path (a seeded rand stream in a property test is fine).
// This also keeps the standalone runner, the analysistest meta-check
// and `go vet -vettool` (which feeds test variants) in agreement.
func Run(pkgs []*load.Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		var files []*ast.File
		for _, f := range pkg.Files {
			if ff := pkg.Fset.File(f.Pos()); ff != nil && strings.HasSuffix(ff.Name(), "_test.go") {
				continue
			}
			files = append(files, f)
		}
		perFile := map[*ast.File][]directive{}
		for _, f := range files {
			perFile[f] = parseDirectives(pkg.Fset, f, func(fd Finding) {
				findings = append(findings, fd)
			})
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.report = func(d Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				for f, ds := range perFile {
					ff := pkg.Fset.File(f.Pos())
					if ff != nil && ff.Name() == pos.Filename && allowed(ds, a.Name, pos.Line) {
						return
					}
				}
				findings = append(findings, Finding{Pos: pos, Rule: a.Name, Message: d.Message})
			}
			a.Run(pass)
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
		return a.Rule < b.Rule
	})
	return findings
}
