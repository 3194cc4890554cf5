package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materialises path->content files under root, creating
// directories as needed.
func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for path, content := range files {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func loadTestModule(t *testing.T, root string) *Module {
	t.Helper()
	mod, err := LoadModule(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

const wireTestSrc = `package dse

type wireMsg struct {
	Kind string
	Seq  int
	Init *wireInit
}

type wireInit struct {
	SpecJSON []byte
	Seed     int64
}
`

// TestWireSchemaGoldenPinsWireTypes drives the full golden lifecycle on
// a synthetic module: a missing golden is a finding, a fresh golden is
// clean, and renaming, retyping or reordering a wire field each drift
// against it.
func TestWireSchemaGoldenPinsWireTypes(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"go.mod":               "module tmod\n\ngo 1.21\n",
		"internal/dse/wire.go": wireTestSrc,
	})

	mod := loadTestModule(t, root)
	diags := RunModule(mod, []*Analyzer{WireSchemaAnalyzer})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "wire schema golden missing") {
		t.Fatalf("missing golden: got %v, want one 'golden missing' finding", diags)
	}

	schema, roots := WireSchema(mod)
	if len(roots) != 1 || roots[0].ID.Name != "wireMsg" {
		t.Fatalf("roots = %v, want [wireMsg]", roots)
	}
	for _, frag := range []string{"tmod/internal/dse.wireMsg struct:", "  Seq int", "  Init *tmod/internal/dse.wireInit", "tmod/internal/dse.wireInit struct:", "  SpecJSON []byte"} {
		if !strings.Contains(schema, frag) {
			t.Fatalf("schema missing %q:\n%s", frag, schema)
		}
	}
	writeTree(t, root, map[string]string{WireSchemaGoldenPath: schema})
	if diags := RunModule(mod, []*Analyzer{WireSchemaAnalyzer}); len(diags) != 0 {
		t.Fatalf("fresh golden: got %v, want clean", diags)
	}

	mutations := map[string]string{
		"rename":  strings.Replace(wireTestSrc, "Seq  int", "Sequence int", 1),
		"retype":  strings.Replace(wireTestSrc, "Seed     int64", "Seed     int32", 1),
		"reorder": strings.Replace(wireTestSrc, "Kind string\n\tSeq  int", "Seq  int\n\tKind string", 1),
	}
	for name, src := range mutations {
		if src == wireTestSrc {
			t.Fatalf("mutation %q did not change the source", name)
		}
		writeTree(t, root, map[string]string{"internal/dse/wire.go": src})
		diags := RunModule(loadTestModule(t, root), []*Analyzer{WireSchemaAnalyzer})
		if len(diags) != 1 || !strings.Contains(diags[0].Message, "wire schema drift") {
			t.Fatalf("%s: got %v, want one 'wire schema drift' finding", name, diags)
		}
		if base := filepath.Base(diags[0].Pos.Filename); base != "wire.go" {
			t.Fatalf("%s: drift anchored at %s, want wire.go", name, base)
		}
	}

	// The generic waiver mechanism covers wireschema too: an allow on the
	// anchoring type declaration suppresses the drift.
	writeTree(t, root, map[string]string{"internal/dse/wire.go": strings.Replace(mutations["rename"],
		"type wireMsg struct {",
		"//lint:allow wireschema staged protocol migration, golden updated in the follow-up change\ntype wireMsg struct {", 1)})
	if diags := RunModule(loadTestModule(t, root), []*Analyzer{WireSchemaAnalyzer}); len(diags) != 0 {
		t.Fatalf("waived drift: got %v, want clean", diags)
	}
}

// TestWireSchemaCoversRepoRoots pins the root list against this
// repository: the three boundary-crossing types must all seed the
// fingerprint, so dropping one from the schema cannot go unnoticed.
func TestWireSchemaCoversRepoRoots(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod := loadTestModule(t, root)
	_, roots := WireSchema(mod)
	got := map[string]bool{}
	for _, td := range roots {
		got[td.ID.Name] = true
	}
	for _, want := range []string{"wireMsg", "Checkpoint", "persistedJob"} {
		if !got[want] {
			t.Errorf("wire-schema roots missing %s (got %v)", want, got)
		}
	}
}

// TestModuleCallGraph exercises the loader-to-call-graph pipeline on a
// synthetic module: cross-package function calls and method calls
// resolve precisely, var initializers enter the graph, and external
// callees keep their import path.
func TestModuleCallGraph(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"go.mod": "module tmod\n\ngo 1.21\n",
		"internal/util/util.go": `package util

import "time"

func Stamp() int64 { return time.Now().UnixNano() }

type Box struct{ N int }

func (b *Box) Get() int { return b.N }

func (b *Box) Peek() (*Box, bool) { return b, true }

func (b *Box) Set(n int) { b.N = n }
`,
		"internal/app/app.go": `package app

import "tmod/internal/util"

var start = util.Stamp()

func Use() int {
	b := &util.Box{}
	_ = util.Stamp()
	if p, ok := b.Peek(); ok {
		p.Set(1)
	}
	return b.Get()
}
`,
	})
	mod := loadTestModule(t, root)

	use := mod.Funcs[FuncID{Pkg: "tmod/internal/app", Name: "Use"}]
	if use == nil {
		t.Fatal("app.Use not indexed")
	}
	resolved := map[string]bool{}
	for _, cs := range use.Calls {
		for _, c := range cs.Callees {
			if c.Fn != nil && !c.Approx {
				resolved[c.Fn.ID.String()] = true
			}
		}
	}
	for _, want := range []FuncID{
		{Pkg: "tmod/internal/util", Name: "Stamp"},
		{Pkg: "tmod/internal/util", Recv: "Box", Name: "Get"},
		// p is typed from the first result of a comma-ok method call.
		{Pkg: "tmod/internal/util", Recv: "Box", Name: "Set"},
	} {
		if !resolved[want.String()] {
			t.Errorf("app.Use call graph missing precise edge to %s (got %v)", want, resolved)
		}
	}

	// Package-level initializers form one function per file.
	vars := mod.Funcs[FuncID{Pkg: "tmod/internal/app", Name: "vars(app.go)"}]
	if vars == nil || len(vars.Calls) != 1 || vars.Calls[0].Callees[0].Fn.ID.Name != "Stamp" {
		t.Errorf("app.go's var initializers should form one function calling util.Stamp, got %+v", vars)
	}

	stamp := mod.Funcs[FuncID{Pkg: "tmod/internal/util", Name: "Stamp"}]
	if stamp == nil {
		t.Fatal("util.Stamp not indexed")
	}
	external := false
	for _, cs := range stamp.Calls {
		for _, c := range cs.Callees {
			if c.External == "time.Now" {
				external = true
			}
		}
	}
	if !external {
		t.Error("util.Stamp should carry an external time.Now callee")
	}
}
