package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// fileImports maps each file's local import names to import paths, so
// selector expressions resolve through aliases ("r" for math/rand) and
// default names alike.
func fileImports(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
			if name == "_" || name == "." {
				continue
			}
		} else {
			// Default local name: the last path element (module-local
			// packages and the stdlib both follow it), or the one before
			// a major-version suffix (math/rand/v2 is rand).
			elems := strings.Split(path, "/")
			name = elems[len(elems)-1]
			if len(elems) > 1 && len(name) > 1 && name[0] == 'v' && strings.Trim(name[1:], "0123456789") == "" {
				name = elems[len(elems)-2]
			}
		}
		out[name] = path
	}
	return out
}

// calleePkgFunc resolves a call of the form pkg.Func where pkg is an
// imported package in f's import table, returning the import path and
// function name (ok=false otherwise, e.g. method calls on variables).
func calleePkgFunc(imports map[string]string, call *ast.CallExpr) (path, fn string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	// A local variable shadowing the import name is possible but never
	// happens for the stdlib packages these rules watch; Obj being nil
	// distinguishes package selectors from variable uses in practice.
	if id.Obj != nil {
		return "", "", false
	}
	p, imported := imports[id.Name]
	if !imported {
		return "", "", false
	}
	return p, sel.Sel.Name, true
}

// rootIdent returns the left-most identifier of a selector/index chain
// (x in x.a.b[i].c), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// isMapTypeExpr reports whether the type expression is syntactically a
// map or a named map type of the module (known lists qualified
// "pkg.Type" spellings and the current package's bare ones).
func isMapTypeExpr(t ast.Expr, known map[string]bool) bool {
	switch v := t.(type) {
	case *ast.MapType:
		return true
	case *ast.Ident:
		return known[v.Name]
	case *ast.SelectorExpr:
		if id, ok := v.X.(*ast.Ident); ok {
			return known[id.Name+"."+v.Sel.Name]
		}
	case *ast.ParenExpr:
		return isMapTypeExpr(v.X, known)
	}
	return false
}

// mapFieldNames collects the names of struct fields declared with map
// types anywhere in the package, so ranges through selectors (s.index)
// can be recognized. Field names that some other package struct also
// declares with a non-map type are ambiguous without type information
// and are excluded (e.g. Phenotype.Alloc is a map while Genome.Alloc is
// a []bool).
func mapFieldNames(files []*ast.File, known map[string]bool) map[string]bool {
	mapNames := map[string]bool{}
	otherNames := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, fld := range st.Fields.List {
				into := otherNames
				if isMapTypeExpr(fld.Type, known) {
					into = mapNames
				}
				for _, name := range fld.Names {
					into[name.Name] = true
				}
			}
			return true
		})
	}
	for name := range otherNames {
		delete(mapNames, name)
	}
	return mapNames
}
