package lint

import (
	"go/ast"
	"strings"
)

// CompiledWriteAnalyzer guards the immutability contract of the
// columnar analysis tables: a sched.CompiledSystem is built once by
// CompileSystem, cached per system (Holistic.CompiledFor) and then
// shared by every worker and every scenario or batch analysis of that
// system. Writing a column after the compile step therefore corrupts
// concurrent analyses — nothing crashes, results just silently
// diverge. The pass flags any assignment through
// a CompiledSystem column field (cs.Order[i] = ..., cs.Release = ...,
// a.cs.N++ and writes through local aliases of a column) outside
// CompileSystem itself. Per-pass mutable state belongs in
// compiledScratch, never in the compiled tables.
var CompiledWriteAnalyzer = &Analyzer{
	Name: "compiledwrite",
	Doc: "forbid writes to CompiledSystem columns outside CompileSystem; " +
		"compiled tables are immutable after the compile step and shared " +
		"across workers — put per-pass state in compiledScratch",
	Run: runCompiledWrite,
}

// compiledPackages are the packages that hold CompiledSystem references
// (the owner plus the core adapter/batch layer above it).
var compiledPackages = []string{
	"internal/sched",
	"internal/core",
}

// compiledColumnFields are the CompiledSystem fields; several names are
// generic (Order, Release, Proc), so a write is only flagged when the
// receiver chain also looks like a compiled system (see
// mentionsCompiledSystem).
var compiledColumnFields = map[string]bool{
	"Sys": true, "N": true, "NProcs": true, "Hyperperiod": true,
	"Arbitrated": true,
	"Release":    true, "AbsDeadline": true, "Period": true,
	"Priority": true, "Proc": true, "NonPreemptive": true,
	"NominalB": true, "NominalW": true, "HardenedW": true,
	"Passive": true, "ReExec": true, "Droppable": true,
	"Order": true,
	"InOff": true, "InFrom": true, "InDelay": true,
	"OutOff": true, "OutTo": true,
	"InterfOff": true, "Interf": true,
	"BlockOff": true, "Block": true,
	"DemandOff": true, "Demand": true,
	"ReadersOff": true, "Readers": true,
	"WReadersOff": true, "WReaders": true,
	"ProcOff": true, "ProcList": true,
}

// compileStepFuncs are the functions allowed to write the columns: the
// compile step populates them before the value escapes.
var compileStepFuncs = map[string]bool{
	"CompileSystem": true,
}

func runCompiledWrite(pass *Pass) {
	applies := false
	for _, suffix := range compiledPackages {
		if pathHasSuffix(pass.PkgPath, suffix) {
			applies = true
			break
		}
	}
	if !applies {
		return
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || compileStepFuncs[fd.Name.Name] {
				continue
			}
			checkCompiledWrites(pass, fd)
		}
	}
}

// mentionsCompiledSystem reports whether the receiver chain names a
// compiled system: the conventional identifier cs, or any identifier
// mentioning "compiled" (fields like compiledSys, parameters like
// compiled).
func mentionsCompiledSystem(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if id.Name == "cs" || strings.Contains(strings.ToLower(id.Name), "compiled") {
			found = true
			return false
		}
		return true
	})
	return found
}

// compiledColumnSelector returns the selector expression X.Field when e
// (possibly behind index expressions) writes through a CompiledSystem
// column field, or nil.
func compiledColumnSelector(e ast.Expr) *ast.SelectorExpr {
	for {
		switch v := e.(type) {
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.SelectorExpr:
			if compiledColumnFields[v.Sel.Name] && mentionsCompiledSystem(v.X) {
				return v
			}
			e = v.X
		default:
			return nil
		}
	}
}

// checkCompiledWrites walks one function in source order, flagging
// direct column writes and writes through local aliases of a column.
func checkCompiledWrites(pass *Pass, fd *ast.FuncDecl) {
	tracked := map[string]bool{}

	report := func(lhs ast.Expr) bool {
		if sel := compiledColumnSelector(lhs); sel != nil {
			pass.Reportf(lhs.Pos(),
				"write to CompiledSystem column %q outside the compile step; compiled tables are immutable and shared across workers — use compiledScratch for per-pass state", sel.Sel.Name)
			return true
		}
		// Writes through a tracked alias: only index/star writes mutate
		// the shared backing array (rebinding the alias is fine).
		switch lhs.(type) {
		case *ast.IndexExpr, *ast.StarExpr:
			if id := rootIdent(lhs); id != nil && tracked[id.Name] {
				pass.Reportf(lhs.Pos(),
					"write through %q, which aliases a CompiledSystem column; compiled tables are immutable after the compile step — copy into compiledScratch first", id.Name)
				return true
			}
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				report(lhs)
			}
			// Track alias binds (x := cs.Order) and rebinds.
			for i, lhs := range v.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if i < len(v.Rhs) && compiledColumnSelector(v.Rhs[i]) != nil {
					tracked[id.Name] = true
				} else if tracked[id.Name] {
					delete(tracked, id.Name)
				}
			}
		case *ast.IncDecStmt:
			report(v.X)
		}
		return true
	})
}
