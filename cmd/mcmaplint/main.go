// Command mcmaplint runs the repository's invariant linter suite (see
// internal/lint): the per-package rules (maprange, gospawn,
// ctxdeadline) plus the whole-module call-graph rules (transdet,
// wireschema, lockorder). It is wired into `make lint` and CI; run it
// over the whole module with
//
//	go run ./cmd/mcmaplint ./...
//
// The module is always loaded in full — the cross-package analyzers
// need the complete call graph — and package-pattern arguments restrict
// which packages' findings are reported. Findings print as
// file:line:col: rule: message and make the exit status 1; -json emits
// them as a machine-readable array instead (CI uploads it as an
// artifact). -wire-schema prints the canonical wire/persistence schema
// fingerprint for regenerating internal/lint/testdata/wire_schema.golden.
// Suppress an individual finding with a justified comment:
//
//	//lint:allow <rule> <reason>
//
// at the end of the offending line, or alone on the line above it; the
// reason is mandatory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mcmap/internal/lint"
)

func main() {
	rules := flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
	list := flag.Bool("list", false, "list the available rules and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	wireSchema := flag.Bool("wire-schema", false, "print the canonical wire-schema fingerprint and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.Analyzers()
	if *rules != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*rules, ",") {
			a := lint.AnalyzerByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "mcmaplint: unknown rule %q (use -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	root, err := lint.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcmaplint:", err)
		os.Exit(2)
	}
	// The cross-package rules need the whole call graph regardless of
	// which packages were asked about.
	mod, err := lint.LoadModule(root, "./...")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcmaplint:", err)
		os.Exit(2)
	}

	if *wireSchema {
		schema, roots := lint.WireSchema(mod)
		if len(roots) == 0 {
			fmt.Fprintln(os.Stderr, "mcmaplint: no wire-schema root types in this module")
			os.Exit(2)
		}
		fmt.Print(schema)
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	selected, err := selectDirs(root, mod, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcmaplint:", err)
		os.Exit(2)
	}

	var findings []lint.Diagnostic
	for _, d := range lint.RunModule(mod, analyzers) {
		if selected[filepath.Dir(d.Pos.Filename)] {
			findings = append(findings, d)
		}
	}

	if *jsonOut {
		type jsonDiag struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Rule    string `json:"rule"`
			Message string `json:"message"`
		}
		out := make([]jsonDiag, 0, len(findings))
		for _, d := range findings {
			file := d.Pos.Filename
			if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = rel
			}
			out = append(out, jsonDiag{File: file, Line: d.Pos.Line, Col: d.Pos.Column, Rule: d.Rule, Message: d.Message})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "mcmaplint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range findings {
			fmt.Println(d)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "mcmaplint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// selectDirs resolves go-style package patterns to the set of loaded
// package directories whose findings should be reported.
func selectDirs(root string, mod *lint.Module, patterns []string) (map[string]bool, error) {
	out := map[string]bool{}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		switch {
		case pat == "...":
			pat, recursive = ".", true
		case strings.HasSuffix(pat, "/..."):
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		base := filepath.Clean(filepath.Join(root, filepath.FromSlash(pat)))
		if _, err := os.Stat(base); err != nil {
			return nil, fmt.Errorf("pattern %q: %w", pat, err)
		}
		for _, pkg := range mod.Pkgs {
			dir := filepath.Clean(pkg.Dir)
			if dir == base || (recursive && strings.HasPrefix(dir, base+string(filepath.Separator))) {
				out[dir] = true
			}
		}
	}
	return out, nil
}
