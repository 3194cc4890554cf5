package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// parseGoldenDir parses the .go files of one testdata directory into
// the shared FileSet.
func parseGoldenDir(t *testing.T, fset *token.FileSet, full string) []*ast.File {
	t.Helper()
	entries, err := os.ReadDir(full)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(full, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", full)
	}
	return files
}

// runGolden loads testdata/<dir> as one package with the given import
// path, runs the analyzer through the full pipeline (suppression
// included) and compares the diagnostics against // want "regex"
// comments, analysistest-style: every want must match a diagnostic on
// its line, and every diagnostic must be covered by a want.
func runGolden(t *testing.T, a *Analyzer, dir, pkgPath string) {
	t.Helper()
	full := filepath.Join("testdata", dir)
	fset := token.NewFileSet()
	files := parseGoldenDir(t, fset, full)
	pkg := &Package{Name: files[0].Name.Name, Path: pkgPath, Dir: full, Fset: fset, Files: files}
	checkWants(t, fset, files, Run(pkg, []*Analyzer{a}))
}

// runModuleGolden loads each listed subdirectory of testdata/<dir> as
// one package (subdir name -> import path), indexes them into a Module
// and runs the analyzer through the module driver, matching diagnostics
// against // want comments across every file of every package.
func runModuleGolden(t *testing.T, a *Analyzer, dir string, pkgPaths map[string]string) {
	t.Helper()
	base := filepath.Join("testdata", dir)
	subs := make([]string, 0, len(pkgPaths))
	for sub := range pkgPaths {
		subs = append(subs, sub)
	}
	sort.Strings(subs)
	fset := token.NewFileSet()
	var pkgs []*Package
	var all []*ast.File
	for _, sub := range subs {
		full := filepath.Join(base, sub)
		files := parseGoldenDir(t, fset, full)
		pkgs = append(pkgs, &Package{Name: files[0].Name.Name, Path: pkgPaths[sub], Dir: full, Fset: fset, Files: files})
		all = append(all, files...)
	}
	mod := NewModule(base, pkgs)
	checkWants(t, fset, all, RunModule(mod, []*Analyzer{a}))
}

// runModuleGoldenExpectNone asserts the analyzer stays silent over the
// module assembled from testdata/<dir> under the given import paths
// (want comments are ignored).
func runModuleGoldenExpectNone(t *testing.T, a *Analyzer, dir string, pkgPaths map[string]string) {
	t.Helper()
	base := filepath.Join("testdata", dir)
	subs := make([]string, 0, len(pkgPaths))
	for sub := range pkgPaths {
		subs = append(subs, sub)
	}
	sort.Strings(subs)
	fset := token.NewFileSet()
	var pkgs []*Package
	for _, sub := range subs {
		full := filepath.Join(base, sub)
		files := parseGoldenDir(t, fset, full)
		pkgs = append(pkgs, &Package{Name: files[0].Name.Name, Path: pkgPaths[sub], Dir: full, Fset: fset, Files: files})
	}
	mod := NewModule(base, pkgs)
	for _, d := range RunModule(mod, []*Analyzer{a}) {
		if d.Rule == a.Name {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// checkWants compares diagnostics against the // want `regex` comments
// in files: every want must match a diagnostic on its line, and every
// diagnostic must be covered by a want.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", m[1], err)
					}
					pos := fset.Position(c.Pos())
					k := key{pos.Filename, pos.Line}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	matched := map[key][]bool{}
	for k, res := range wants {
		matched[k] = make([]bool, len(res))
	}
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		ok := false
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				matched[k][i] = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, res := range wants {
		for i, re := range res {
			if !matched[k][i] {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
			}
		}
	}
}

var wantRe = regexp.MustCompile("want `([^`]+)`")

func TestDeterminismGolden(t *testing.T) {
	runGolden(t, DeterminismAnalyzer, "determinism", "mcmap/internal/core")
}

func TestDeterminismSkipsOtherPackages(t *testing.T) {
	// The same sources are clean when the package is outside the
	// deterministic set.
	runGoldenExpectNone(t, DeterminismAnalyzer, "determinism", "mcmap/internal/texttable")
}

func TestMapRangeGolden(t *testing.T) {
	runGolden(t, MapRangeAnalyzer, "maprange", "mcmap/internal/dse")
}

func TestGoSpawnGolden(t *testing.T) {
	runGolden(t, GoSpawnAnalyzer, "gospawn", "mcmap/internal/sim")
}

func TestGoSpawnSkipsWorkpool(t *testing.T) {
	runGoldenExpectNone(t, GoSpawnAnalyzer, "gospawn", "mcmap/internal/workpool")
}

func TestSyncCopyGolden(t *testing.T) {
	runGolden(t, SyncCopyAnalyzer, "synccopy", "mcmap/internal/sched")
}

func TestTransDetGolden(t *testing.T) {
	runModuleGolden(t, TransDetAnalyzer, "transdet", map[string]string{
		"clock": "tmod/internal/clock",
		"dse":   "tmod/internal/dse",
	})
}

func TestLockOrderGolden(t *testing.T) {
	runModuleGolden(t, LockOrderAnalyzer, "lockorder", map[string]string{
		"svc": "tmod/internal/service",
	})
}

func TestLockOrderSkipsOutOfScopePackages(t *testing.T) {
	// The same sources are clean when the package is outside the lock
	// scope: the analysis core is lock-free by design, not by rule.
	runModuleGoldenExpectNone(t, LockOrderAnalyzer, "lockorder", map[string]string{
		"svc": "tmod/internal/texttable",
	})
}

func TestCtxDeadlineGolden(t *testing.T) {
	runGolden(t, CtxDeadlineAnalyzer, "ctxdeadline", "mcmap/internal/service")
}

func TestCtxDeadlineSkipsOtherPackages(t *testing.T) {
	runGoldenExpectNone(t, CtxDeadlineAnalyzer, "ctxdeadline", "mcmap/internal/core")
}

// runGoldenExpectNone asserts the analyzer stays silent on the package
// path (want comments are ignored).
func runGoldenExpectNone(t *testing.T, a *Analyzer, dir, pkgPath string) {
	t.Helper()
	full := filepath.Join("testdata", dir)
	fset := token.NewFileSet()
	files := parseGoldenDir(t, fset, full)
	pkg := &Package{Name: files[0].Name.Name, Path: pkgPath, Dir: full, Fset: fset, Files: files}
	for _, d := range Run(pkg, []*Analyzer{a}) {
		if d.Rule == a.Name {
			t.Errorf("unexpected diagnostic for %s: %s", pkgPath, d)
		}
	}
}
