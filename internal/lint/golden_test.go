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

// loadGolden parses each listed subdirectory of testdata/<dir> ("."
// for the directory itself) as one package under the given import path
// and indexes them into a Module, returning it with every parsed file.
func loadGolden(t *testing.T, dir string, pkgPaths map[string]string) (*Module, []*ast.File) {
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
	return NewModule(base, pkgs), all
}

// runGolden runs the analyzer over the golden module through the full
// pipeline (suppression included) and compares the diagnostics against
// // want "regex" comments, analysistest-style: every want must match a
// diagnostic on its line, and every diagnostic must be covered by a
// want.
func runGolden(t *testing.T, a *Analyzer, dir string, pkgPaths map[string]string) {
	t.Helper()
	mod, files := loadGolden(t, dir, pkgPaths)
	checkWants(t, mod.Fset, files, RunModule(mod, []*Analyzer{a}))
}

// runGoldenExpectNone asserts the analyzer stays silent over the golden
// module (want comments are ignored).
func runGoldenExpectNone(t *testing.T, a *Analyzer, dir string, pkgPaths map[string]string) {
	t.Helper()
	mod, _ := loadGolden(t, dir, pkgPaths)
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

// TestDeterminismGolden runs transdet over direct roots in a
// deterministic package: each is a witness chain of length 0.
func TestDeterminismGolden(t *testing.T) {
	runGolden(t, TransDetAnalyzer, "determinism", map[string]string{".": "mcmap/internal/core"})
}

func TestDeterminismSkipsOtherPackages(t *testing.T) {
	// The same sources are clean when the package is outside the
	// deterministic set.
	runGoldenExpectNone(t, TransDetAnalyzer, "determinism", map[string]string{".": "mcmap/internal/texttable"})
}

func TestMapRangeGolden(t *testing.T) {
	runGolden(t, MapRangeAnalyzer, "maprange", map[string]string{".": "mcmap/internal/dse"})
}

func TestGoSpawnGolden(t *testing.T) {
	runGolden(t, GoSpawnAnalyzer, "gospawn", map[string]string{".": "mcmap/internal/sim"})
}

func TestGoSpawnSkipsWorkpool(t *testing.T) {
	runGoldenExpectNone(t, GoSpawnAnalyzer, "gospawn", map[string]string{".": "mcmap/internal/workpool"})
}

func TestTransDetGolden(t *testing.T) {
	runGolden(t, TransDetAnalyzer, "transdet", map[string]string{
		"clock": "tmod/internal/clock",
		"dse":   "tmod/internal/dse",
	})
}

func TestLockOrderGolden(t *testing.T) {
	runGolden(t, LockOrderAnalyzer, "lockorder", map[string]string{
		"svc": "tmod/internal/service",
	})
}

func TestCtxDeadlineGolden(t *testing.T) {
	runGolden(t, CtxDeadlineAnalyzer, "ctxdeadline", map[string]string{".": "mcmap/internal/service"})
}

func TestCtxDeadlineSkipsOtherPackages(t *testing.T) {
	runGoldenExpectNone(t, CtxDeadlineAnalyzer, "ctxdeadline", map[string]string{".": "mcmap/internal/core"})
}
