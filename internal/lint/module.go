package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// This file indexes the module every analyzer runs over: the loaded
// packages with named types, struct fields, a function table and a
// syntactic interprocedural call graph. Resolution stays purely
// syntactic (no go/types): calls are resolved through per-file import
// tables for pkg.Func selectors, through a lightweight local type
// environment (receivers, parameters, typed declarations, composite
// literals, results of resolved calls) for method calls, and — where the
// receiver type cannot be decided — by method-set approximation: every
// module method of that name becomes a candidate callee, marked Approx
// so precision-sensitive analyzers can discount those edges.

// TypeID names a module-level named type by import path and identifier.
type TypeID struct {
	Pkg  string
	Name string
}

func (t TypeID) String() string { return t.Pkg + "." + t.Name }

// FuncID names a function, or a method by bare receiver type name.
type FuncID struct {
	Pkg  string
	Recv string // "" for plain functions; pointerness is erased
	Name string
}

func (f FuncID) String() string {
	if f.Recv != "" {
		return f.Pkg + ".(" + f.Recv + ")." + f.Name
	}
	return f.Pkg + "." + f.Name
}

// StructField is one field of a module struct, embedded fields
// included (under their bare type name).
type StructField struct {
	Name     string
	Type     ast.Expr
	Tag      string
	Embedded bool
	Pos      token.Pos
}

// TypeDef is one named type declaration.
type TypeDef struct {
	ID   TypeID
	Pkg  *Package
	File *ast.File // import context for the type's field/underlying exprs
	Spec *ast.TypeSpec
	// Struct is non-nil when the underlying type is a struct literal;
	// Fields then lists its fields in declaration order.
	Struct *ast.StructType
	Fields []StructField
}

// Callee is one possible target of a call site.
type Callee struct {
	// Fn is the resolved module function, nil for externals.
	Fn *FuncInfo
	// External is the import-path-qualified name ("time.Now") when the
	// callee lives outside the loaded module.
	External string
	// Approx marks method-set-approximated resolution: the receiver
	// type was unknown, so every module method with a matching name is
	// a candidate. Precision-sensitive analyzers skip these edges.
	Approx bool
}

// CallSite is one call expression and its candidate callees.
type CallSite struct {
	Pos     token.Pos
	Call    *ast.CallExpr
	Callees []Callee
}

// FuncInfo is one module function with its outgoing calls (calls made
// inside function literals are attributed to the enclosing function).
// Each file's package-level var declarations form one synthetic
// function, so calls in initializers enter the call graph too.
type FuncInfo struct {
	ID    FuncID
	Pkg   *Package
	File  *ast.File
	Decl  *ast.FuncDecl
	Calls []CallSite
}

// Module is the whole-repo index every analyzer runs over.
type Module struct {
	Root string
	Fset *token.FileSet
	Pkgs []*Package

	// Types indexes every named type declaration.
	Types map[TypeID]*TypeDef
	// Funcs indexes every function and method declaration.
	Funcs map[FuncID]*FuncInfo
	// NamedMaps marks named types whose underlying type is a map.
	NamedMaps map[TypeID]bool

	ids           []FuncID // Funcs' keys in sorted order, for deterministic output
	byPath        map[string]*Package
	methodsByName map[string][]*FuncInfo
	importsOf     map[*ast.File]map[string]string
	allows        allowSet
	malformed     []Diagnostic
}

// Imports returns the file's local-name→import-path table (cached).
func (m *Module) Imports(f *ast.File) map[string]string {
	if imp, ok := m.importsOf[f]; ok {
		return imp
	}
	imp := fileImports(f)
	m.importsOf[f] = imp
	return imp
}

// NewModule indexes the packages (which must share one FileSet, as
// Load guarantees) into a Module rooted at root.
func NewModule(root string, pkgs []*Package) *Module {
	m := &Module{
		Root:          root,
		Pkgs:          pkgs,
		Types:         map[TypeID]*TypeDef{},
		Funcs:         map[FuncID]*FuncInfo{},
		NamedMaps:     map[TypeID]bool{},
		byPath:        map[string]*Package{},
		methodsByName: map[string][]*FuncInfo{},
		importsOf:     map[*ast.File]map[string]string{},
	}
	if len(pkgs) > 0 {
		m.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		m.byPath[pkg.Path] = pkg
	}
	m.allows, m.malformed = collectAllows(m.Fset, pkgs)
	m.indexTypes()
	m.indexFuncs()
	m.resolveCalls()
	return m
}

func (m *Module) indexTypes() {
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					td := &TypeDef{
						ID:   TypeID{Pkg: pkg.Path, Name: ts.Name.Name},
						Pkg:  pkg,
						File: f,
						Spec: ts,
					}
					if st, isStruct := ts.Type.(*ast.StructType); isStruct {
						td.Struct = st
						td.Fields = structFields(st)
					}
					if _, isMap := ts.Type.(*ast.MapType); isMap {
						m.NamedMaps[td.ID] = true
					}
					m.Types[td.ID] = td
				}
			}
		}
	}
}

// structFields flattens a struct literal's field list in declaration
// order; embedded fields appear under the bare name of their type.
func structFields(st *ast.StructType) []StructField {
	var out []StructField
	if st.Fields == nil {
		return out
	}
	for _, fld := range st.Fields.List {
		tag := ""
		if fld.Tag != nil {
			tag = fld.Tag.Value
		}
		if len(fld.Names) == 0 {
			name := ""
			if id := baseTypeName(fld.Type); id != "" {
				name = id
			}
			out = append(out, StructField{Name: name, Type: fld.Type, Tag: tag, Embedded: true, Pos: fld.Pos()})
			continue
		}
		for _, n := range fld.Names {
			out = append(out, StructField{Name: n.Name, Type: fld.Type, Tag: tag, Pos: n.Pos()})
		}
	}
	return out
}

// baseTypeName returns the bare identifier of a (possibly pointered or
// package-qualified) type expression: *pkg.T → "T".
func baseTypeName(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.StarExpr:
		return baseTypeName(v.X)
	case *ast.SelectorExpr:
		return v.Sel.Name
	case *ast.ParenExpr:
		return baseTypeName(v.X)
	case *ast.IndexExpr: // generic instantiation T[U]
		return baseTypeName(v.X)
	}
	return ""
}

func (m *Module) indexFuncs() {
	add := func(fi *FuncInfo) {
		m.Funcs[fi.ID] = fi
		m.ids = append(m.ids, fi.ID)
		if fi.ID.Recv != "" {
			m.methodsByName[fi.ID.Name] = append(m.methodsByName[fi.ID.Name], fi)
		}
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			base := filepath.Base(m.Fset.Position(f.Pos()).Filename)
			var vars []ast.Stmt
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					vars = append(vars, &ast.DeclStmt{Decl: gd})
				}
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				id := FuncID{Pkg: pkg.Path, Name: fd.Name.Name}
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					id.Recv = baseTypeName(fd.Recv.List[0].Type)
				} else if id.Name == "init" {
					// A package may declare several init functions, and
					// none can be called by name.
					id.Name = fmt.Sprintf("init(%s:%d)", base, m.Fset.Position(fd.Pos()).Line)
				}
				add(&FuncInfo{ID: id, Pkg: pkg, File: f, Decl: fd})
			}
			if len(vars) > 0 {
				// The name is no identifier, so no call resolves to it.
				decl := &ast.FuncDecl{Name: ast.NewIdent("vars(" + base + ")"), Type: &ast.FuncType{}, Body: &ast.BlockStmt{List: vars}}
				add(&FuncInfo{ID: FuncID{Pkg: pkg.Path, Name: decl.Name.Name}, Pkg: pkg, File: f, Decl: decl})
			}
		}
	}
	sort.Slice(m.ids, func(i, j int) bool { return m.ids[i].String() < m.ids[j].String() })
	for _, fis := range m.methodsByName {
		sort.Slice(fis, func(i, j int) bool { return fis[i].ID.String() < fis[j].ID.String() })
	}
}

// resolveTypeID resolves a type expression to a named type identity,
// erasing pointers. imports is the declaring file's import table and
// pkgPath the declaring package. External named types resolve too
// ({"sync","Mutex"}, {"net","Conn"}); inline composites do not.
func resolveTypeID(e ast.Expr, imports map[string]string, pkgPath string) (TypeID, bool) {
	switch v := e.(type) {
	case *ast.Ident:
		if v.Name == "" {
			return TypeID{}, false
		}
		return TypeID{Pkg: pkgPath, Name: v.Name}, true
	case *ast.SelectorExpr:
		id, ok := v.X.(*ast.Ident)
		if !ok {
			return TypeID{}, false
		}
		path, imported := imports[id.Name]
		if !imported {
			return TypeID{}, false
		}
		return TypeID{Pkg: path, Name: v.Sel.Name}, true
	case *ast.StarExpr:
		return resolveTypeID(v.X, imports, pkgPath)
	case *ast.ParenExpr:
		return resolveTypeID(v.X, imports, pkgPath)
	}
	return TypeID{}, false
}

// typeEnv maps local names (receiver, parameters, typed variables) to
// named types within one function.
type typeEnv map[string]TypeID

// funcTypeEnv builds the local type environment for one function:
// receiver and parameter/result names, `var x T` declarations, and
// assignments from composite literals, new(T) and single-result module
// constructors.
func (m *Module) funcTypeEnv(fi *FuncInfo) typeEnv {
	env := typeEnv{}
	imports := m.Imports(fi.File)
	bind := func(names []*ast.Ident, t ast.Expr) {
		id, ok := resolveTypeID(t, imports, fi.Pkg.Path)
		if !ok {
			return
		}
		for _, n := range names {
			if n.Name != "_" {
				env[n.Name] = id
			}
		}
	}
	if fi.Decl.Recv != nil && len(fi.Decl.Recv.List) == 1 {
		r := fi.Decl.Recv.List[0]
		bind(r.Names, r.Type)
	}
	if fi.Decl.Type.Params != nil {
		for _, p := range fi.Decl.Type.Params.List {
			bind(p.Names, p.Type)
		}
	}
	if fi.Decl.Type.Results != nil {
		for _, p := range fi.Decl.Type.Results.List {
			bind(p.Names, p.Type)
		}
	}
	if fi.Decl.Body == nil {
		return env
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.DeclStmt:
			gd, ok := v.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if ok && vs.Type != nil {
					bind(vs.Names, vs.Type)
				}
			}
		case *ast.AssignStmt:
			var results []TypeID // x, ok := f(): one type per result of f
			if call, isCall := v.Rhs[0].(*ast.CallExpr); isCall && len(v.Rhs) == 1 && len(v.Lhs) > 1 {
				results = m.callResults(call, env, imports, fi.Pkg.Path)
			}
			for i, lhs := range v.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				var t TypeID
				switch {
				case len(v.Lhs) == len(v.Rhs):
					t, ok = m.exprResultType(v.Rhs[i], env, imports, fi.Pkg.Path)
				case len(results) == len(v.Lhs):
					t, ok = results[i], results[i] != TypeID{}
				default:
					ok = false
				}
				if _, seen := env[id.Name]; ok && !seen {
					env[id.Name] = t
				}
			}
		}
		return true
	})
	return env
}

// exprResultType resolves the named type an expression evaluates to,
// for the value-producing forms the env builder understands.
func (m *Module) exprResultType(e ast.Expr, env typeEnv, imports map[string]string, pkgPath string) (TypeID, bool) {
	switch v := e.(type) {
	case *ast.CompositeLit:
		if v.Type == nil {
			return TypeID{}, false
		}
		return resolveTypeID(v.Type, imports, pkgPath)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return m.exprResultType(v.X, env, imports, pkgPath)
		}
	case *ast.ParenExpr:
		return m.exprResultType(v.X, env, imports, pkgPath)
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "new" && len(v.Args) == 1 {
			return resolveTypeID(v.Args[0], imports, pkgPath)
		}
		if rs := m.callResults(v, env, imports, pkgPath); len(rs) == 1 && rs[0] != (TypeID{}) {
			return rs[0], true
		}
	}
	return TypeID{}, false
}

// callResults resolves the result types of a call whose callee is one
// precisely resolved module function: one entry per result, zero where
// resolveTypeID cannot name the type.
func (m *Module) callResults(call *ast.CallExpr, env typeEnv, imports map[string]string, pkgPath string) []TypeID {
	callees := m.calleesOf(call, env, imports, pkgPath)
	if len(callees) != 1 || callees[0].Fn == nil || callees[0].Approx || callees[0].Fn.Decl.Type.Results == nil {
		return nil
	}
	fn := callees[0].Fn
	var out []TypeID
	for _, r := range fn.Decl.Type.Results.List {
		t, _ := resolveTypeID(r.Type, m.Imports(fn.File), fn.Pkg.Path)
		for range max(1, len(r.Names)) {
			out = append(out, t)
		}
	}
	return out
}

// namedCallee resolves the direct (non-method, non-approximate) callee
// of a call: a same-package function or an imported pkg.Func.
func (m *Module) namedCallee(call *ast.CallExpr, env typeEnv, imports map[string]string, pkgPath string) (Callee, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if goBuiltins[fun.Name] {
			return Callee{}, false
		}
		if fun.Obj != nil && fun.Obj.Kind != ast.Fun {
			return Callee{}, false // local variable or type shadows the name
		}
		if _, isVar := env[fun.Name]; isVar {
			return Callee{}, false
		}
		if fi, ok := m.Funcs[FuncID{Pkg: pkgPath, Name: fun.Name}]; ok {
			return Callee{Fn: fi}, true
		}
	case *ast.SelectorExpr:
		id, ok := fun.X.(*ast.Ident)
		if !ok || id.Obj != nil {
			return Callee{}, false
		}
		path, imported := imports[id.Name]
		if !imported {
			return Callee{}, false
		}
		if m.byPath[path] != nil {
			if fi, ok := m.Funcs[FuncID{Pkg: path, Name: fun.Sel.Name}]; ok {
				return Callee{Fn: fi}, true
			}
			return Callee{}, false
		}
		return Callee{External: path + "." + fun.Sel.Name}, true
	}
	return Callee{}, false
}

// exprType resolves the named type of a value expression: env lookups,
// field selections through the struct index, and single-result calls.
func (m *Module) exprType(e ast.Expr, env typeEnv, imports map[string]string, pkgPath string) (TypeID, bool) {
	switch v := e.(type) {
	case *ast.Ident:
		t, ok := env[v.Name]
		return t, ok
	case *ast.ParenExpr:
		return m.exprType(v.X, env, imports, pkgPath)
	case *ast.StarExpr:
		return m.exprType(v.X, env, imports, pkgPath)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return m.exprType(v.X, env, imports, pkgPath)
		}
	case *ast.SelectorExpr:
		owner, ok := m.exprType(v.X, env, imports, pkgPath)
		if !ok {
			return TypeID{}, false
		}
		td := m.Types[owner]
		if td == nil || td.Struct == nil {
			return TypeID{}, false
		}
		for _, fld := range td.Fields {
			if fld.Name == v.Sel.Name {
				return resolveTypeID(fld.Type, m.Imports(td.File), td.ID.Pkg)
			}
		}
	case *ast.CallExpr:
		return m.exprResultType(v, env, imports, pkgPath)
	case *ast.TypeAssertExpr:
		if v.Type != nil {
			return resolveTypeID(v.Type, imports, pkgPath)
		}
	}
	return TypeID{}, false
}

// resolveCalls fills each function's call sites. Method calls resolve
// through the local type environment where possible and fall back to
// method-set approximation otherwise.
func (m *Module) resolveCalls() {
	for _, id := range m.ids {
		fi := m.Funcs[id]
		if fi.Decl.Body == nil {
			continue
		}
		env := m.funcTypeEnv(fi)
		imports := m.Imports(fi.File)
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callees := m.calleesOf(call, env, imports, fi.Pkg.Path)
			if len(callees) > 0 {
				fi.Calls = append(fi.Calls, CallSite{Pos: call.Pos(), Call: call, Callees: callees})
			}
			return true
		})
	}
}

// calleesOf resolves one call expression to its candidate callees.
func (m *Module) calleesOf(call *ast.CallExpr, env typeEnv, imports map[string]string, pkgPath string) []Callee {
	if c, ok := m.namedCallee(call, env, imports, pkgPath); ok {
		return []Callee{c}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if id, isIdent := sel.X.(*ast.Ident); isIdent && id.Obj == nil {
		if _, imported := imports[id.Name]; imported {
			// pkg.Func that namedCallee could not resolve (module package
			// without such a function) — nothing to record.
			return nil
		}
	}
	name := sel.Sel.Name
	if recv, ok := m.exprType(sel.X, env, imports, pkgPath); ok {
		if fi, ok := m.Funcs[FuncID{Pkg: recv.Pkg, Recv: recv.Name, Name: name}]; ok {
			return []Callee{{Fn: fi}}
		}
		if m.byPath[recv.Pkg] == nil {
			// Method on an external type (conn.Read, enc.Encode): record
			// the external callee so taint rules can seed on it.
			return []Callee{{External: recv.Pkg + "." + recv.Name + "." + name}}
		}
	}
	// Receiver type unknown (interface values, chained expressions):
	// method-set approximation over every module method of this name.
	var out []Callee
	for _, fi := range m.methodsByName[name] {
		out = append(out, Callee{Fn: fi, Approx: true})
	}
	return out
}

// goBuiltins are callable predeclared identifiers that never resolve
// to module functions.
var goBuiltins = map[string]bool{
	"append": true, "cap": true, "clear": true, "close": true,
	"complex": true, "copy": true, "delete": true, "imag": true,
	"len": true, "make": true, "max": true, "min": true, "new": true,
	"panic": true, "print": true, "println": true, "real": true,
	"recover": true,
}

// knownMapNames renders the module's named map types in the spellings
// source inside pkgPath can use: qualified "pkg.Type" everywhere, bare
// "Type" for the package's own declarations.
func (m *Module) knownMapNames(pkgPath string) map[string]bool {
	out := map[string]bool{}
	for id := range m.NamedMaps {
		out[shortPkg(id.Pkg)+"."+id.Name] = true
		if id.Pkg == pkgPath {
			out[id.Name] = true
		}
	}
	return out
}

// shortPkg returns the last element of an import path.
func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
