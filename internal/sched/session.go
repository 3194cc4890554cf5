package sched

import "mcmap/internal/platform"

// SessionAnalyzer is an optional extension for backends that can pin
// scratch state across a run of analyses on one system. Algorithm 1
// opens one session per call: its fault-free pass and every scenario
// then reuse the pinned scratch directly instead of cycling it through
// the backend's shared freelist, so the freelist mutex vanishes from
// the per-scenario hot path and the buffers stay hot in the cache.
type SessionAnalyzer interface {
	Analyzer
	// OpenSession pins scratch state for analyses of sys. The caller
	// owns the session until Close and must not share it between
	// goroutines; results are byte-identical to the session-free entry
	// points.
	OpenSession(sys *platform.System) *Session
}

// Session is a single-goroutine analysis context with pinned scratch
// state. The scratch is checked out of the backend's freelist lazily on
// first use and returned by Close; between analyses it is re-prepped to
// the exact state a fresh checkout would establish, which is what makes
// session results byte-identical to the plain entry points.
type Session struct {
	h   *Holistic
	sys *platform.System
	hs  *holisticScratch
}

// OpenSession implements SessionAnalyzer.
func (h *Holistic) OpenSession(sys *platform.System) *Session {
	return &Session{h: h, sys: sys}
}

func (se *Session) scratch() *holisticScratch {
	if se.hs == nil {
		se.hs = se.h.scratch.Get()
		if se.hs == nil {
			se.hs = newHolisticScratch()
		}
	}
	se.hs.prep(se.sys)
	return se.hs
}

// Analyze is Analyzer.Analyze over the session's system and scratch.
func (se *Session) Analyze(exec []ExecBounds) (*Result, error) {
	return se.h.analyzeWith(se.sys, exec, se.scratch())
}

// Close returns the pinned scratch to the backend freelist. The session
// must not be used afterwards.
func (se *Session) Close() {
	if se == nil {
		return
	}
	if se.hs != nil {
		se.h.scratch.Put(se.hs)
		se.hs = nil
	}
}

var _ SessionAnalyzer = (*Holistic)(nil)
