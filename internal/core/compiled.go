package core

import (
	"mcmap/internal/platform"
	"mcmap/internal/sched"
)

// compiledAdapter routes one Analyze call's backend invocations through
// the columnar engine: it binds the holistic backend to the compiled
// lowering of the call's system, so the fault-free pass and every
// scenario analysis run over the shared SoA tables instead of the
// pointer graph. The adapter satisfies the same optional interfaces as
// the backend it wraps (concurrent, session), keeps its Name (reports
// are unchanged), and defensively falls through to the pointer path for
// any foreign system — so it composes with every core code path that
// re-dispatches on the analyzer.
type compiledAdapter struct {
	h  *sched.Holistic
	cs *sched.CompiledSystem
}

// engageCompiled wraps the analyzer in a compiledAdapter bound to sys
// when the compiled engine applies: Config.Compiled set and a holistic
// backend (other backends have no columnar form and run unchanged).
// Arbitrated fabrics still engage — the compiled entry points delegate
// those to the pointer path themselves, keeping the decision in one
// place.
func (c Config) engageCompiled(analyzer sched.Analyzer, sys *platform.System) sched.Analyzer {
	if !c.Compiled {
		return analyzer
	}
	h, ok := analyzer.(*sched.Holistic)
	if !ok {
		return analyzer
	}
	return &compiledAdapter{h: h, cs: h.CompiledFor(sys)}
}

func (a *compiledAdapter) Name() string { return a.h.Name() }

func (a *compiledAdapter) ConcurrencySafe() bool { return a.h.ConcurrencySafe() }

func (a *compiledAdapter) Analyze(sys *platform.System, exec []sched.ExecBounds) (*sched.Result, error) {
	if sys != a.cs.Sys {
		return a.h.Analyze(sys, exec)
	}
	return a.h.AnalyzeCompiled(a.cs, exec)
}

// OpenSession implements sched.SessionAnalyzer: sessions on the bound
// system route through the compiled kernel with pinned scratch; foreign
// systems get a plain pointer-path session, mirroring the defensive
// fallthrough of the per-call entry points.
func (a *compiledAdapter) OpenSession(sys *platform.System) *sched.Session {
	if sys == a.cs.Sys {
		return a.h.OpenCompiledSession(a.cs)
	}
	return a.h.OpenSession(sys)
}

var (
	_ sched.ConcurrentAnalyzer = (*compiledAdapter)(nil)
	_ sched.SessionAnalyzer    = (*compiledAdapter)(nil)
)
