package lint

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
)

// CtxDeadlineAnalyzer guards the liveness of the transport and service
// layers: in internal/service and the dse transport files, a blocking
// channel operation outside a select with a context/stop case (or a
// default), and a net.Conn read/write (directly or through
// readFrame/writeFrame) with no prior deadline in the same function,
// each turn a hung peer or an abandoned request into a leaked goroutine
// that holds queue slots and cache references forever. Every blocking
// point must either carry a deadline, sit in a cancellable select, or
// document its liveness argument with //lint:allow ctxdeadline.
var CtxDeadlineAnalyzer = &Analyzer{
	Name: "ctxdeadline",
	Doc: "in transport/service code, forbid blocking channel ops outside a " +
		"context/stop select and net.Conn IO without a prior deadline; " +
		"document intentional indefinite blocking with //lint:allow ctxdeadline",
	Run: runCtxDeadline,
}

// dseTransportFiles are the distributed-protocol files of internal/dse;
// the rest of the package is the deterministic engine, which blocks
// only on the in-process pool.
var dseTransportFiles = map[string]bool{
	"transport.go":   true,
	"tcp.go":         true,
	"pipe.go":        true,
	"distributed.go": true,
}

func ctxDeadlineInScope(pkgPath, filename string) bool {
	if pathHasSuffix(pkgPath, "internal/service") {
		return true
	}
	if pathHasSuffix(pkgPath, "internal/dse") {
		return dseTransportFiles[filepath.Base(filename)]
	}
	return false
}

func runCtxDeadline(pass *Pass) {
	connFields := connFieldNames(pass.Module, pass.Files)
	for _, f := range pass.Files {
		filename := pass.Module.Fset.Position(f.Pos()).Filename
		if !ctxDeadlineInScope(pass.PkgPath, filename) {
			continue
		}
		imports := pass.Module.Imports(f)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCtxDeadlineFunc(pass, fd, imports, connFields)
		}
	}
}

// connFieldNames collects struct field names declared with type
// net.Conn anywhere in the package, minus names that other structs
// declare with different types (same ambiguity rule as mapFieldNames).
func connFieldNames(mod *Module, files []*ast.File) map[string]bool {
	conn := map[string]bool{}
	other := map[string]bool{}
	for _, f := range files {
		imports := mod.Imports(f)
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, fld := range st.Fields.List {
				into := other
				if isNetConnExpr(fld.Type, imports) {
					into = conn
				}
				for _, name := range fld.Names {
					into[name.Name] = true
				}
			}
			return true
		})
	}
	for name := range other {
		delete(conn, name)
	}
	return conn
}

func isNetConnExpr(e ast.Expr, imports map[string]string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	return imports[id.Name] == "net" && (sel.Sel.Name == "Conn" || sel.Sel.Name == "TCPConn")
}

// exprChain renders a selector chain ("t.conn") for matching deadline
// guards to later IO on the same expression; non-chain expressions
// yield "".
func exprChain(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		if x := exprChain(v.X); x != "" {
			return x + "." + v.Sel.Name
		}
	case *ast.ParenExpr:
		return exprChain(v.X)
	}
	return ""
}

// mentionsCancellation reports whether the expression textually
// involves a context or stop/done signal — the channel names the
// select-guard heuristic accepts.
func mentionsCancellation(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		low := strings.ToLower(id.Name)
		for _, kw := range [...]string{"ctx", "context", "done", "stop", "quit", "cancel", "closing", "closed"} {
			if strings.Contains(low, kw) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// selectGuarded reports whether a select can always make progress or be
// cancelled: it has a default clause or a case receiving from a
// context/stop channel.
func selectGuarded(sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return true // default
		}
		var ch ast.Expr
		switch comm := cc.Comm.(type) {
		case *ast.ExprStmt:
			if u, ok := comm.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				ch = u.X
			}
		case *ast.AssignStmt:
			for _, r := range comm.Rhs {
				if u, ok := r.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					ch = u.X
				}
			}
		}
		if ch != nil && mentionsCancellation(ch) {
			return true
		}
	}
	return false
}

func checkCtxDeadlineFunc(pass *Pass, fd *ast.FuncDecl, imports map[string]string, connFields map[string]bool) {
	// Parameters declared net.Conn join the field-name table for this
	// function's conn-expression detection.
	localConn := map[string]bool{}
	if fd.Type.Params != nil {
		for _, p := range fd.Type.Params.List {
			if isNetConnExpr(p.Type, imports) {
				for _, n := range p.Names {
					localConn[n.Name] = true
				}
			}
		}
	}
	var isConnExpr func(e ast.Expr) bool
	isConnExpr = func(e ast.Expr) bool {
		switch v := e.(type) {
		case *ast.Ident:
			return localConn[v.Name] || connFields[v.Name]
		case *ast.SelectorExpr:
			return connFields[v.Sel.Name]
		case *ast.ParenExpr:
			return isConnExpr(v.X)
		}
		return false
	}

	// First sweep: positions of deadline guards per conn chain, split by
	// direction — a write deadline says nothing about how long a read
	// may hang, and vice versa.
	readGuards := map[string][]token.Pos{}
	writeGuards := map[string][]token.Pos{}
	ast.Inspect(fd, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		chain := exprChain(sel.X)
		if chain == "" {
			return true
		}
		switch sel.Sel.Name {
		case "SetDeadline":
			readGuards[chain] = append(readGuards[chain], call.Pos())
			writeGuards[chain] = append(writeGuards[chain], call.Pos())
		case "SetReadDeadline":
			readGuards[chain] = append(readGuards[chain], call.Pos())
		case "SetWriteDeadline":
			writeGuards[chain] = append(writeGuards[chain], call.Pos())
		}
		return true
	})
	guardedBefore := func(guards map[string][]token.Pos, e ast.Expr, pos token.Pos) bool {
		chain := exprChain(e)
		if chain == "" {
			return false
		}
		for _, g := range guards[chain] {
			if g < pos {
				return true
			}
		}
		return false
	}

	// The comm statements of each select are handled at the select
	// level, not as bare blocking ops.
	commStmts := map[ast.Stmt]bool{}

	ast.Inspect(fd, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SelectStmt:
			for _, cl := range v.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
					commStmts[cc.Comm] = true
				}
			}
			if !selectGuarded(v) {
				pass.Reportf(v.Pos(),
					"select with no default and no context/stop case blocks indefinitely; add a cancellation case or //lint:allow ctxdeadline with the liveness argument")
			}
		case *ast.SendStmt:
			if !commStmts[v] {
				pass.Reportf(v.Pos(),
					"blocking channel send outside a select; a stuck receiver wedges this goroutine — select on the send plus a context/stop case")
			}
		case *ast.ExprStmt:
			if u, ok := v.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW && !commStmts[v] {
				pass.Reportf(v.Pos(),
					"blocking channel receive outside a select; pair it with a context/stop case so an abandoned peer cannot wedge this goroutine")
			}
		case *ast.AssignStmt:
			if commStmts[v] {
				return true
			}
			for _, r := range v.Rhs {
				if u, ok := r.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					pass.Reportf(v.Pos(),
						"blocking channel receive outside a select; pair it with a context/stop case so an abandoned peer cannot wedge this goroutine")
				}
			}
		case *ast.CallExpr:
			// Frame helpers and direct conn IO: require a deadline set
			// earlier in the same function on the same conn expression.
			switch fun := v.Fun.(type) {
			case *ast.Ident:
				if (fun.Name == "readFrame" || fun.Name == "writeFrame") && len(v.Args) > 0 && isConnExpr(v.Args[0]) {
					guards := readGuards
					if fun.Name == "writeFrame" {
						guards = writeGuards
					}
					if !guardedBefore(guards, v.Args[0], v.Pos()) {
						pass.Reportf(v.Pos(),
							"%s on a net.Conn with no prior deadline in this function; a hung peer blocks forever — SetRead/WriteDeadline first or //lint:allow ctxdeadline with the liveness argument", fun.Name)
					}
				}
			case *ast.SelectorExpr:
				if (fun.Sel.Name == "Read" || fun.Sel.Name == "Write") && isConnExpr(fun.X) {
					guards := readGuards
					if fun.Sel.Name == "Write" {
						guards = writeGuards
					}
					if !guardedBefore(guards, fun.X, v.Pos()) {
						pass.Reportf(v.Pos(),
							"net.Conn.%s with no prior deadline in this function; a hung peer blocks forever — SetRead/WriteDeadline first or //lint:allow ctxdeadline with the liveness argument", fun.Sel.Name)
					}
				}
			}
		}
		return true
	})
}
