package sched

import "mcmap/internal/platform"

// SessionAnalyzer is an optional extension for backends that can pin
// scratch state across a run of analyses on one system. Algorithm 1
// opens one session per call: its fault-free pass and every scenario
// then reuse the pinned scratch directly instead of cycling it through
// the backend's scratch pool, so the buffers and the system's kernel
// stay hot for the whole call.
type SessionAnalyzer interface {
	Analyzer
	// OpenSession pins scratch state for analyses of sys. The caller
	// owns the session until Close and must not share it between
	// goroutines; results are byte-identical to the session-free entry
	// points.
	OpenSession(sys *platform.System) *Session
}

// Session is a single-goroutine analysis context with pinned scratch
// state. The scratch is drawn from the scratch pool lazily on first use
// and returned by Close; between analyses it is re-prepped to the exact
// state a fresh checkout would establish, which is what makes session
// results byte-identical to the plain entry points.
type Session struct {
	sys *platform.System
	hs  *holisticScratch
}

// OpenSession implements SessionAnalyzer.
func (h *Holistic) OpenSession(sys *platform.System) *Session {
	return &Session{sys: sys}
}

// Analyze is Analyzer.Analyze over the session's system and scratch.
func (se *Session) Analyze(exec []ExecBounds) (*Result, error) {
	res := new(Result)
	if err := se.AnalyzeInto(res, exec); err != nil {
		return nil, err
	}
	return res, nil
}

// AnalyzeInto is Analyze writing into a caller-owned result: it
// overwrites every field of res and reuses the capacity of res.Bounds,
// so a caller that recycles its results analyzes without allocating.
func (se *Session) AnalyzeInto(res *Result, exec []ExecBounds) error {
	if se.hs == nil {
		se.hs = scratchPool.Get().(*holisticScratch)
	}
	se.hs.prep(se.sys)
	return analyzeWith(se.sys, exec, se.hs, res)
}

// Reset re-targets the session at sys. A closed session may be reset
// and used again (its next analysis draws a scratch from the pool), so
// a long-lived caller keeps one Session for every system it analyzes.
func (se *Session) Reset(sys *platform.System) {
	se.sys = sys
}

// Close returns the pinned scratch to the scratch pool. The session
// must not be used afterwards, unless Reset first.
func (se *Session) Close() {
	if se == nil {
		return
	}
	if se.hs != nil {
		scratchPool.Put(se.hs)
		se.hs = nil
	}
}

var _ SessionAnalyzer = (*Holistic)(nil)
