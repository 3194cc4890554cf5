package lint

import (
	"go/ast"
	"go/token"
)

// MapRangeAnalyzer flags range statements over maps, inside the
// deterministic packages, whose bodies feed order-sensitive sinks:
// appending to a slice that is never subsequently sorted in the same
// function, or writing bytes (fmt.Fprint*/Write/WriteString/hash sums)
// directly from the loop body. Go randomizes map iteration order, so
// such loops make Reports, CSV exports and fingerprints differ between
// runs. Loops that fill other maps/sets, or whose append target is
// sorted afterwards, are fine and not reported.
var MapRangeAnalyzer = &Analyzer{
	Name: "maprange",
	Doc: "forbid map-range loops that append to unsorted slices or write " +
		"output/hash state in deterministic packages; sort the keys first",
	Run: runMapRange,
}

func runMapRange(pass *Pass) {
	if !inDeterministicPackage(pass.PkgPath) {
		return
	}
	known := pass.Module.knownMapNames(pass.PkgPath)
	fields := mapFieldNames(pass.Files, known)
	for _, f := range pass.Files {
		imports := pass.Module.Imports(f)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			mr := &mapRangeChecker{
				pass:    pass,
				imports: imports,
				known:   known,
				fields:  fields,
				mapVars: map[string]bool{},
			}
			mr.collectMapVars(fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				mr.checkRange(fd, rs)
				return true
			})
		}
	}
}

type mapRangeChecker struct {
	pass    *Pass
	imports map[string]string
	known   map[string]bool
	fields  map[string]bool
	// mapVars are identifiers known (syntactically) to hold maps.
	mapVars map[string]bool
}

// collectMapVars gathers map-typed identifiers from the signature and
// from declarations/short assignments in the body.
func (mr *mapRangeChecker) collectMapVars(fd *ast.FuncDecl) {
	addFieldList := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, fld := range fl.List {
			if !isMapTypeExpr(fld.Type, mr.known) {
				continue
			}
			for _, name := range fld.Names {
				mr.mapVars[name.Name] = true
			}
		}
	}
	addFieldList(fd.Recv)
	addFieldList(fd.Type.Params)
	addFieldList(fd.Type.Results)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.DeclStmt:
			gd, ok := v.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || vs.Type == nil || !isMapTypeExpr(vs.Type, mr.known) {
					continue
				}
				for _, name := range vs.Names {
					mr.mapVars[name.Name] = true
				}
			}
		case *ast.AssignStmt:
			if len(v.Lhs) != len(v.Rhs) {
				return true
			}
			for i, lhs := range v.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if mr.isMapExpr(v.Rhs[i]) {
					mr.mapVars[id.Name] = true
				}
			}
		}
		return true
	})
}

// isMapExpr reports whether the expression syntactically yields a map:
// make(map...), a map literal, or a composite literal of a named map
// type.
func (mr *mapRangeChecker) isMapExpr(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.CompositeLit:
		return v.Type != nil && isMapTypeExpr(v.Type, mr.known)
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "make" && len(v.Args) >= 1 {
			return isMapTypeExpr(v.Args[0], mr.known)
		}
	}
	return false
}

// rangesOverMap decides whether the range subject is (recognizably) a
// map.
func (mr *mapRangeChecker) rangesOverMap(x ast.Expr) bool {
	switch v := x.(type) {
	case *ast.Ident:
		return mr.mapVars[v.Name]
	case *ast.SelectorExpr:
		return mr.fields[v.Sel.Name]
	case *ast.ParenExpr:
		return mr.rangesOverMap(v.X)
	}
	return mr.isMapExpr(x)
}

func (mr *mapRangeChecker) checkRange(fd *ast.FuncDecl, rs *ast.RangeStmt) {
	// A key/value-less range executes an order-independent body.
	if rs.Key == nil && rs.Value == nil {
		return
	}
	if !mr.rangesOverMap(rs.X) {
		return
	}
	// One report per append target per loop, even when the body appends
	// in several branches.
	reported := map[string]bool{}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			mr.checkAppend(fd, rs, v, reported)
		case *ast.CallExpr:
			mr.checkOutputCall(rs, v)
		}
		return true
	})
}

// checkAppend flags x = append(x, ...) inside the loop when x is never
// sorted later in the same function.
func (mr *mapRangeChecker) checkAppend(fd *ast.FuncDecl, rs *ast.RangeStmt, as *ast.AssignStmt, reported map[string]bool) {
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		fun, ok := call.Fun.(*ast.Ident)
		if !ok || fun.Name != "append" || len(call.Args) == 0 {
			continue
		}
		if i >= len(as.Lhs) {
			continue
		}
		target := rootIdent(as.Lhs[i])
		if target == nil {
			continue
		}
		// Appending to a variable declared inside the loop body is
		// invisible outside one iteration.
		if target.Obj != nil {
			if decl, ok := target.Obj.Decl.(ast.Node); ok &&
				decl.Pos() >= rs.Body.Pos() && decl.Pos() <= rs.Body.End() {
				continue
			}
		}
		if reported[target.Name] || mr.sortedAfter(fd, target.Name, rs.End()) {
			continue
		}
		reported[target.Name] = true
		mr.pass.Reportf(rs.Pos(),
			"map iteration appends to %q in nondeterministic order and the slice is never sorted in this function; iterate sorted keys or sort the result", target.Name)
		return
	}
}

// sortedAfter reports whether the function calls sort.*/slices.* with
// name among the arguments after pos.
func (mr *mapRangeChecker) sortedAfter(fd *ast.FuncDecl, name string, pos token.Pos) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		path, _, ok := calleePkgFunc(mr.imports, call)
		if !ok || (path != "sort" && path != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if unary, ok := arg.(*ast.UnaryExpr); ok {
				arg = unary.X
			}
			if id := rootIdent(arg); id != nil && id.Name == name {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// outputMethodNames are writer/hasher methods whose call order is
// observable in the produced bytes.
var outputMethodNames = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"WriteRow":    true,
	"Sum":         true,
	"Sum64":       true,
	"Sum32":       true,
}

// checkOutputCall flags direct byte production from the loop body.
func (mr *mapRangeChecker) checkOutputCall(rs *ast.RangeStmt, call *ast.CallExpr) {
	if path, fn, ok := calleePkgFunc(mr.imports, call); ok {
		if path == "fmt" {
			switch fn {
			case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
				mr.pass.Reportf(call.Pos(),
					"fmt.%s inside a map-range loop emits output in nondeterministic order; iterate sorted keys", fn)
			}
		}
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !outputMethodNames[sel.Sel.Name] {
		return
	}
	mr.pass.Reportf(call.Pos(),
		"%s call inside a map-range loop feeds writer/hash state in nondeterministic order; iterate sorted keys", sel.Sel.Name)
}
