// Package lint implements the mcmaplint invariant checkers: small
// static-analysis passes over this repository's own source that enforce
// the contracts the performance work introduced and a careless edit
// silently breaks — deterministic Reports (no wall-clock, no unseeded
// randomness, no map-ordered output), pool-only goroutine spawning, and
// immutability of cached analysis baselines.
//
// The framework is deliberately self-contained: it builds only on the
// standard library's go/ast, go/parser and go/token (the module vendors
// no dependencies, and golang.org/x/tools is not available in the build
// environment), so the passes are syntactic. Each analyzer resolves
// imports per file (aliases included) and keeps a lightweight local
// type table for the few type facts it needs; where syntax cannot
// decide, the rules err on the side of reporting and offer a documented
// escape hatch:
//
//	//lint:allow <rule> <reason>
//
// placed at the end of the offending line or on the line directly above
// it. The reason is mandatory — an allow comment without one does not
// suppress anything and is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	// Pos is the resolved file position of the finding.
	Pos token.Position
	// Rule is the reporting analyzer's name.
	Rule string
	// Message describes the violation and how to fix it.
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer is one named invariant checker. Per-package analyzers set
// Run; whole-repo analyzers set RunModule instead (and are skipped by
// the single-package driver). An analyzer may set both, in which case
// the module driver prefers RunModule.
type Analyzer struct {
	// Name is the rule name used in output and //lint:allow comments.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run reports violations on the pass via Pass.Reportf.
	Run func(*Pass)
	// RunModule reports violations over the whole module via
	// ModulePass.Reportf (call-graph and cross-package rules).
	RunModule func(*ModulePass)
}

// Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test source files.
	Files []*ast.File
	// PkgName is the package identifier.
	PkgName string
	// PkgPath is the import path (e.g. "mcmap/internal/core"); the
	// path-scoped rules decide applicability from it.
	PkgPath string
	// Module is the whole-repo index when the pass runs under the
	// module driver, nil in single-package mode. Per-package analyzers
	// use it to upgrade their cross-package approximations (named map
	// types, locky structs) when it is available.
	Module *Module

	diags []Diagnostic
}

// ModulePass is one analyzer's view of the whole module.
type ModulePass struct {
	Analyzer *Analyzer
	Module   *Module

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Module.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full mcmaplint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		MapRangeAnalyzer,
		GoSpawnAnalyzer,
		SyncCopyAnalyzer,
		TransDetAnalyzer,
		WireSchemaAnalyzer,
		LockOrderAnalyzer,
		CtxDeadlineAnalyzer,
	}
}

// AnalyzerByName resolves one analyzer, or nil.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run executes the given analyzers over the package and returns the
// surviving diagnostics: suppressed findings are dropped, malformed
// suppression comments are reported, and the result is sorted by
// position. Module-only analyzers (nil Run) are skipped; use RunModule
// to execute them.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	allows := allowSet{}
	var out []Diagnostic
	collectAllows(allows, pkg.Fset, pkg.Files, &out)
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			PkgName:  pkg.Name,
			PkgPath:  pkg.Path,
		}
		a.Run(pass)
		for _, d := range pass.diags {
			if allows.suppresses(d) {
				continue
			}
			out = append(out, d)
		}
	}
	sortDiagnostics(out)
	return out
}

// RunModule executes the given analyzers over the whole module:
// module-level analyzers run once against the shared index, per-package
// analyzers run package by package with Pass.Module populated.
// Suppression and malformed-allow reporting work exactly as in Run,
// with allow comments collected across every loaded package.
func RunModule(mod *Module, analyzers []*Analyzer) []Diagnostic {
	allows := allowSet{}
	var out []Diagnostic
	for _, pkg := range mod.Pkgs {
		collectAllows(allows, pkg.Fset, pkg.Files, &out)
	}
	for _, a := range analyzers {
		var diags []Diagnostic
		switch {
		case a.RunModule != nil:
			mp := &ModulePass{Analyzer: a, Module: mod}
			a.RunModule(mp)
			diags = mp.diags
		case a.Run != nil:
			for _, pkg := range mod.Pkgs {
				pass := &Pass{
					Analyzer: a,
					Fset:     pkg.Fset,
					Files:    pkg.Files,
					PkgName:  pkg.Name,
					PkgPath:  pkg.Path,
					Module:   mod,
				}
				a.Run(pass)
				diags = append(diags, pass.diags...)
			}
		}
		for _, d := range diags {
			if allows.suppresses(d) {
				continue
			}
			out = append(out, d)
		}
	}
	sortDiagnostics(out)
	return out
}

func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Rule < out[j].Rule
	})
}

// allowSet indexes //lint:allow comments by file, line and rule. An
// allow on line N suppresses findings of its rule on line N and line
// N+1, so both end-of-line and line-above placement work.
type allowSet map[string]map[int]map[string]bool

// allows reports whether a finding of rule at pos is suppressed.
func (s allowSet) allows(pos token.Position, rule string) bool {
	lines := s[pos.Filename]
	if lines == nil {
		return false
	}
	for _, ln := range [2]int{pos.Line, pos.Line - 1} {
		if rules := lines[ln]; rules != nil && (rules[rule] || rules["*"]) {
			return true
		}
	}
	return false
}

func (s allowSet) suppresses(d Diagnostic) bool {
	return s.allows(d.Pos, d.Rule)
}

var allowRe = regexp.MustCompile(`^//\s*lint:allow\s+(\S+)\s*(.*)$`)

// collectAllows scans the files' comments for suppression directives,
// indexing well-formed ones into allows and appending a diagnostic per
// malformed one (missing rule or missing reason) to malformed.
func collectAllows(allows allowSet, fset *token.FileSet, files []*ast.File, malformed *[]Diagnostic) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// Like //go: directives, the suppression form admits no
				// space after the slashes; prose that merely mentions
				// lint:allow is not a directive.
				text := c.Text
				if !strings.HasPrefix(text, "//lint:allow") {
					continue
				}
				pos := fset.Position(c.Pos())
				m := allowRe.FindStringSubmatch(text)
				if m == nil || strings.TrimSpace(m[2]) == "" {
					*malformed = append(*malformed, Diagnostic{
						Pos:  pos,
						Rule: "allow",
						Message: "malformed suppression: want //lint:allow <rule> <reason> " +
							"(the reason is mandatory)",
					})
					continue
				}
				rule := m[1]
				lines := allows[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					allows[pos.Filename] = lines
				}
				if lines[pos.Line] == nil {
					lines[pos.Line] = map[string]bool{}
				}
				lines[pos.Line][rule] = true
			}
		}
	}
}

// pathHasSuffix reports whether the import path equals or ends with
// "/"+suffix (so "internal/core" matches "mcmap/internal/core").
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
