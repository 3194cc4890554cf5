package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// runSrc runs the analyzers over a one-file module built from source
// text.
func runSrc(t *testing.T, pkgPath, src string, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Name: f.Name.Name, Path: pkgPath, Fset: fset, Files: []*ast.File{f}}
	return RunModule(NewModule("", []*Package{pkg}), analyzers)
}

func TestMalformedAllowIsReported(t *testing.T) {
	diags := runSrc(t, "mcmap/internal/sim", `package sim

func work() {}

func spawn() {
	//lint:allow gospawn
	go work()
}
`, GoSpawnAnalyzer)
	var rules []string
	for _, d := range diags {
		rules = append(rules, d.Rule)
	}
	got := strings.Join(rules, ",")
	// The reason-less allow is itself reported AND does not suppress
	// the finding it decorates.
	if got != "allow,gospawn" {
		t.Fatalf("rules = %q, want \"allow,gospawn\"", got)
	}
}

func TestAllowWithReasonSuppresses(t *testing.T) {
	if diags := runSrc(t, "mcmap/internal/sim", `package sim

func work() {}

func spawn() {
	//lint:allow gospawn the goroutine blocks on a pool slot immediately
	go work()
}
`, GoSpawnAnalyzer); len(diags) != 0 {
		t.Fatalf("want no diagnostics, got %v", diags)
	}
}

func TestWildcardAllow(t *testing.T) {
	if diags := runSrc(t, "mcmap/internal/sim", `package sim

func work() {}

func spawn() {
	go work() //lint:allow * generated code, exempt from every rule
}
`, GoSpawnAnalyzer); len(diags) != 0 {
		t.Fatalf("want no diagnostics, got %v", diags)
	}
}

// TestAllowCoversOneLine pins the placement contract: a trailing allow
// covers only its own line, an allow alone on its line only the next.
func TestAllowCoversOneLine(t *testing.T) {
	diags := runSrc(t, "mcmap/internal/sim", `package sim

func work() {}

func spawn() {
	go work() //lint:allow gospawn the goroutine blocks on a pool slot immediately
	go work()
	//lint:allow gospawn the goroutine blocks on a pool slot immediately
	go work()
	go work()
}
`, GoSpawnAnalyzer)
	var lines []int
	for _, d := range diags {
		lines = append(lines, d.Pos.Line)
	}
	if fmt.Sprint(lines) != "[7 10]" {
		t.Fatalf("findings on lines %v, want [7 10]: %v", lines, diags)
	}
}

func TestLoadResolvesPackages(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./internal/workpool")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Name != "workpool" || p.Path != "mcmap/internal/workpool" {
		t.Fatalf("got %s %s", p.Name, p.Path)
	}
	for _, f := range p.Files {
		name := filepath.Base(p.Fset.Position(f.Pos()).Filename)
		if strings.HasSuffix(name, "_test.go") {
			t.Fatalf("test file %s was loaded", name)
		}
	}
}

func TestLoadRecursiveSkipsTestdata(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./internal/lint/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if strings.Contains(p.Dir, "testdata") {
			t.Fatalf("testdata package %s was loaded", p.Dir)
		}
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1 (internal/lint itself)", len(pkgs))
	}
}

func TestAnalyzerByName(t *testing.T) {
	for _, a := range Analyzers() {
		if AnalyzerByName(a.Name) != a {
			t.Fatalf("AnalyzerByName(%q) did not round-trip", a.Name)
		}
	}
	if AnalyzerByName("nope") != nil {
		t.Fatal("unknown name should resolve to nil")
	}
}

// TestSelfClean runs the full suite — per-package and cross-package
// rules alike — over this repository: the tree must be free of findings
// (fresh violations fail CI through make lint; this test keeps the gate
// honest from inside go test as well).
func TestSelfClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := LoadModule(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range RunModule(mod, Analyzers()) {
		t.Errorf("%s", d)
	}
}
