package lint

import (
	"go/ast"
	"go/token"
	"maps"
	"sort"
	"strings"
)

// LockOrderAnalyzer forbids taking a mutex while another is held,
// anywhere in the module. With no nested acquisition, no two code paths
// can take a pair of locks in opposite orders and deadlock, and no path
// can re-enter a held, non-reentrant mutex through a callee.
//
// A function acquires a mutex when it calls sync.Mutex.Lock,
// sync.RWMutex.Lock or sync.RWMutex.RLock, or — over precisely resolved
// call edges only, so a method-name coincidence cannot fabricate a
// finding — a function that does. One walk per locking function tracks
// the held set and reports each acquisition made while it is not empty.
// Branches run on copies of the held set; after an if, switch or select
// the walk goes on with what any arm that falls through may still hold
// (the if or switch skipped entirely counts as an arm). Loop bodies run
// on copies, a deferred unlock keeps its lock held to the end of the
// function, and a go statement starts with nothing held.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc: "forbid acquiring a mutex, directly or through a precisely resolved call " +
		"chain, while another is held; copy out under one lock, release it, then take the next",
	RunModule: runLockOrder,
}

// lockOps are the external callees the call graph resolves mutex
// methods to: true acquires, false releases.
var lockOps = map[string]bool{
	"sync.Mutex.Lock":      true,
	"sync.RWMutex.Lock":    true,
	"sync.RWMutex.RLock":   true,
	"sync.Mutex.Unlock":    false,
	"sync.RWMutex.Unlock":  false,
	"sync.RWMutex.RUnlock": false,
}

func runLockOrder(mp *ModulePass) {
	mod := mp.Module
	acquirers := map[FuncID][]string{}
	var lockers []FuncID
	for _, id := range mod.ids {
		for _, cs := range mod.Funcs[id].Calls {
			if c := cs.Callees[0]; lockOps[c.External] && acquirers[id] == nil {
				acquirers[id] = []string{c.External}
				lockers = append(lockers, id)
			}
		}
	}
	taint(mod, acquirers, true)

	// Only a function that locks directly can hold a mutex.
	for _, id := range lockers {
		fi := mod.Funcs[id]
		w := &heldWalk{mp: mp, acquirers: acquirers, sites: map[*ast.CallExpr][]Callee{}}
		for _, cs := range fi.Calls {
			w.sites[cs.Call] = cs.Callees
		}
		w.walk(fi.Decl.Body, map[string]bool{})
	}
}

// heldWalk tracks the mutexes held through one function body, keyed by
// the source text of the locked expression (r.mu).
type heldWalk struct {
	mp        *ModulePass
	acquirers map[FuncID][]string
	sites     map[*ast.CallExpr][]Callee
}

func (w *heldWalk) walk(root ast.Node, held map[string]bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			w.branches(v.(ast.Stmt), held)
			return false
		case *ast.BlockStmt:
			if n != root {
				w.walk(n, maps.Clone(held))
				return false
			}
		case *ast.FuncLit:
			w.walk(v.Body, maps.Clone(held))
			return false
		case *ast.GoStmt:
			w.walk(v.Call, map[string]bool{})
			return false
		case *ast.DeferStmt:
			if acquire, ok := w.lockOp(v.Call); ok && !acquire {
				return false
			}
			w.walk(v.Call, maps.Clone(held))
			return false
		case *ast.CallExpr:
			w.call(v, held)
		}
		return true
	})
}

// branches walks a conditional statement: its header on held, each arm
// on a copy. Afterwards held is the union of the arms that fall through.
func (w *heldWalk) branches(s ast.Stmt, held map[string]bool) {
	var header []ast.Node
	var arms [][]ast.Stmt
	skippable := true
	var clauses []ast.Stmt
	switch s := s.(type) {
	case *ast.IfStmt:
		header = []ast.Node{s.Init, s.Cond}
		arms = append(arms, s.Body.List)
		if s.Else != nil {
			arms, skippable = append(arms, []ast.Stmt{s.Else}), false
		}
	case *ast.SwitchStmt:
		header, clauses = []ast.Node{s.Init, s.Tag}, s.Body.List
	case *ast.TypeSwitchStmt:
		header, clauses = []ast.Node{s.Init, s.Assign}, s.Body.List
	case *ast.SelectStmt:
		clauses, skippable = s.Body.List, false
	}
	for _, cl := range clauses {
		switch cl := cl.(type) {
		case *ast.CaseClause:
			arms = append(arms, cl.Body)
			skippable = skippable && cl.List != nil
		case *ast.CommClause:
			arms = append(arms, append([]ast.Stmt{cl.Comm}, cl.Body...))
		}
	}
	for _, h := range header {
		if h != nil {
			w.walk(h, held)
		}
	}
	out := map[string]bool{}
	if skippable {
		maps.Copy(out, held)
	}
	for _, arm := range arms {
		a := maps.Clone(held)
		for _, st := range arm {
			if st != nil {
				w.walk(st, a)
			}
		}
		if len(arm) == 0 || !terminates(arm[len(arm)-1]) {
			maps.Copy(out, a)
		}
	}
	clear(held)
	maps.Copy(held, out)
}

// terminates reports whether control cannot fall off the end of s.
func terminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE || s.Tok == token.GOTO
	case *ast.BlockStmt:
		return len(s.List) > 0 && terminates(s.List[len(s.List)-1])
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// lockOp classifies a call as a mutex acquisition or release.
func (w *heldWalk) lockOp(call *ast.CallExpr) (acquire, ok bool) {
	if cs := w.sites[call]; len(cs) > 0 {
		acquire, ok = lockOps[cs[0].External]
	}
	return acquire, ok
}

func (w *heldWalk) call(call *ast.CallExpr, held map[string]bool) {
	if acquire, ok := w.lockOp(call); ok {
		sel := call.Fun.(*ast.SelectorExpr)
		mu := exprChain(sel.X)
		if !acquire {
			delete(held, mu)
			return
		}
		if len(held) > 0 {
			w.mp.Reportf(call.Pos(), "%s.%s() while holding %s; take no mutex while another is held: copy out under one lock, release it, then take the next",
				mu, sel.Sel.Name, heldNames(held))
		}
		held[mu] = true
		return
	}
	if len(held) == 0 {
		return
	}
	for _, c := range w.sites[call] {
		if c.Fn == nil || c.Approx || w.acquirers[c.Fn.ID] == nil {
			continue
		}
		chain := append([]string{displayFunc(c.Fn.ID)}, w.acquirers[c.Fn.ID]...)
		w.mp.Reportf(call.Pos(), "call to %s, which acquires a mutex (%s), while holding %s; take no mutex while another is held: copy out under one lock, release it, then call",
			displayFunc(c.Fn.ID), strings.Join(chain, " -> "), heldNames(held))
		return
	}
}

// heldNames renders the held set for messages, sorted.
func heldNames(held map[string]bool) string {
	names := make([]string, 0, len(held))
	for mu := range held {
		if mu == "" {
			mu = "a mutex"
		}
		names = append(names, mu)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
