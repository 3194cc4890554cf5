// Package lint implements the mcmaplint invariant checkers: small
// static-analysis passes over this repository's own source that enforce
// the contracts the performance work introduced and a careless edit
// silently breaks — deterministic Reports (no wall-clock, no unseeded
// randomness, no map-ordered output), pool-only goroutine spawning, no
// mutex taken while another is held, deadline-guarded transport IO and
// a pinned wire schema.
//
// The framework is deliberately self-contained: it builds only on the
// standard library's go/ast, go/parser and go/token (the module vendors
// no dependencies, and golang.org/x/tools is not available in the build
// environment), so the passes are syntactic. Every rule runs through
// one driver, RunModule, over a Module: the loaded packages with their
// import tables, named types and a syntactic call graph. Where syntax
// cannot decide, the rules err on the side of reporting and offer a
// documented escape hatch:
//
//	//lint:allow <rule> <reason>
//
// placed at the end of the offending line, or alone on the line
// directly above it. The reason is mandatory — an allow comment without
// one does not suppress anything and is itself reported.
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
// Run and see one package at a time; whole-module analyzers set
// RunModule and see the module once.
type Analyzer struct {
	// Name is the rule name used in output and //lint:allow comments.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run reports violations in one package via Pass.Reportf.
	Run func(*Pass)
	// RunModule reports violations over the whole module via
	// ModulePass.Reportf (call-graph and cross-package rules).
	RunModule func(*ModulePass)
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

// Pass is one per-package analyzer's view of one package of the module.
type Pass struct {
	*ModulePass
	// Files are the package's non-test source files.
	Files []*ast.File
	// PkgPath is the import path (e.g. "mcmap/internal/core"); the
	// path-scoped rules decide applicability from it.
	PkgPath string
}

// Analyzers returns the full mcmaplint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapRangeAnalyzer,
		GoSpawnAnalyzer,
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

// RunModule executes the given analyzers over the module — whole-module
// analyzers once, per-package analyzers package by package — and
// returns the surviving diagnostics: findings on a line an allow
// comment covers are dropped, malformed allow comments are reported,
// and the result is sorted by position.
func RunModule(mod *Module, analyzers []*Analyzer) []Diagnostic {
	out := append([]Diagnostic(nil), mod.malformed...)
	for _, a := range analyzers {
		mp := &ModulePass{Analyzer: a, Module: mod}
		if a.RunModule != nil {
			a.RunModule(mp)
		} else {
			for _, pkg := range mod.Pkgs {
				a.Run(&Pass{ModulePass: mp, Files: pkg.Files, PkgPath: pkg.Path})
			}
		}
		for _, d := range mp.diags {
			if !mod.allows.allows(d.Pos, d.Rule) {
				out = append(out, d)
			}
		}
	}
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
	return out
}

// allowSet indexes //lint:allow comments by file, covered line and
// rule. A trailing allow covers its own line; an allow alone on its
// line covers the line below it.
type allowSet map[string]map[int]map[string]bool

// allows reports whether a finding of rule at pos is suppressed.
func (s allowSet) allows(pos token.Position, rule string) bool {
	rules := s[pos.Filename][pos.Line]
	return rules[rule] || rules["*"]
}

// ruleAliases maps retired rule names that waivers may still carry to
// the rule that reports their findings now.
var ruleAliases = map[string]string{"determinism": "transdet"}

var allowRe = regexp.MustCompile(`^//\s*lint:allow\s+(\S+)\s*(.*)$`)

// collectAllows scans the packages' comments for suppression
// directives, indexing well-formed ones and returning a diagnostic per
// malformed one (missing rule or missing reason).
func collectAllows(fset *token.FileSet, pkgs []*Package) (allowSet, []Diagnostic) {
	allows := allowSet{}
	var malformed []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			var code map[int]int
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					// Like //go: directives, the suppression form admits no
					// space after the slashes; prose that merely mentions
					// lint:allow is not a directive.
					if !strings.HasPrefix(c.Text, "//lint:allow") {
						continue
					}
					pos := fset.Position(c.Pos())
					m := allowRe.FindStringSubmatch(c.Text)
					if m == nil || strings.TrimSpace(m[2]) == "" {
						malformed = append(malformed, Diagnostic{
							Pos:  pos,
							Rule: "allow",
							Message: "malformed suppression: want //lint:allow <rule> <reason> " +
								"(the reason is mandatory)",
						})
						continue
					}
					if code == nil {
						code = codeStarts(fset, f)
					}
					line := pos.Line + 1
					if start, ok := code[pos.Line]; ok && start < pos.Offset {
						line = pos.Line
					}
					rule := m[1]
					if to, ok := ruleAliases[rule]; ok {
						rule = to
					}
					lines := allows[pos.Filename]
					if lines == nil {
						lines = map[int]map[string]bool{}
						allows[pos.Filename] = lines
					}
					if lines[line] == nil {
						lines[line] = map[string]bool{}
					}
					lines[line][rule] = true
				}
			}
		}
	}
	return allows, malformed
}

// codeStarts maps each line of f that holds code to the byte offset of
// its first token, found among the start and end positions of the
// file's syntax nodes (comments excluded).
func codeStarts(fset *token.FileSet, f *ast.File) map[int]int {
	tf := fset.File(f.Pos())
	starts := map[int]int{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.CommentGroup, *ast.Comment:
			return false
		}
		for _, p := range [2]token.Pos{n.Pos(), n.End() - 1} {
			line, off := tf.Line(p), tf.Offset(p)
			if s, ok := starts[line]; !ok || off < s {
				starts[line] = off
			}
		}
		return true
	})
	return starts
}

// pathHasSuffix reports whether the import path equals or ends with
// "/"+suffix (so "internal/core" matches "mcmap/internal/core").
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
