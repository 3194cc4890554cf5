// Package workpool provides a shared, bounded worker budget for nested
// parallelism, served by persistent worker goroutines.
//
// The DSE runs several islands at once, and each island evaluates its
// generation's candidate groups in parallel (evaluateAll) and computes
// the SPEA-II strength and density rows in parallel. Giving each layer
// an independent limit of W workers allows W*W runnable goroutines;
// sharing one Pool between the layers caps the whole computation at W.
// Algorithm 1 itself runs sequentially inside each evaluation and draws
// no slot of its own.
//
// The protocol that makes nesting deadlock-free is asymmetric:
//
//   - the OUTER layer calls Acquire (blocking) once per unit of work and
//     Release when done;
//   - an INNER layer that wants extra helpers calls TryAcquire
//     (non-blocking) per helper and falls back to running inline on the
//     caller's goroutine when the budget is exhausted.
//
// Because an inner layer never blocks waiting for a slot its own caller
// transitively holds, progress is always possible: every Acquire holder
// can complete its work inline.
//
// Tasks run on long-lived workers spawned lazily up to the budget, so a
// fan-out over N microsecond-scale jobs costs N channel sends, not N
// goroutine start/stop cycles, and per-worker state stays warm in cache
// across batches.
package workpool

import (
	"sync"
	"sync/atomic"
)

// Pool is a counting semaphore bounding concurrently running workers,
// backed by persistent worker goroutines. The zero value is not usable;
// construct with New. All methods are safe for concurrent use, except
// that Close must not race Submit or FanOut.
type Pool struct {
	sem   chan struct{}
	tasks chan func()

	mu      sync.Mutex
	workers int
	closed  bool
}

// New returns a pool admitting up to n concurrent workers. Values below
// one are clamped to one. Workers are spawned lazily as tasks arrive; a
// pool that is never Submitted to costs nothing.
func New(n int) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{
		sem: make(chan struct{}, n),
		// Every queued-or-running task holds a sem slot, so at most n
		// tasks are in flight and a buffer of n makes enqueue
		// non-blocking. Close's nil sentinels can briefly share the
		// buffer with draining tasks, so reserve room for them too.
		tasks: make(chan func(), 2*n),
	}
}

// Cap returns the pool's worker budget.
func (p *Pool) Cap() int { return cap(p.sem) }

// InUse returns the number of currently claimed worker slots. It is an
// instantaneous observation for monitoring (daemon /stats, tests) — by
// the time the caller reads it, slots may have come or gone. Note that
// work dispatched to remote fleet workers holds no local slots, so a
// coordinator driving a large remote fan-out can legitimately report a
// near-idle pool.
func (p *Pool) InUse() int { return len(p.sem) }

// Acquire blocks until a worker slot is available. Outer-layer use only;
// see the package comment for the nesting protocol.
func (p *Pool) Acquire() { p.sem <- struct{}{} }

// TryAcquire claims a worker slot if one is immediately available and
// reports whether it did. Inner layers must use this (never Acquire) so
// that nested fan-out degrades to inline execution instead of
// deadlocking.
func (p *Pool) TryAcquire() bool {
	select {
	case p.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot claimed by Acquire or a successful TryAcquire.
func (p *Pool) Release() { <-p.sem }

// Submit claims a spare slot (TryAcquire semantics) and, on success,
// schedules f on a persistent worker, releasing the slot when f
// returns. It reports whether f was scheduled; on false the caller
// should run the work inline. Submit never blocks.
func (p *Pool) Submit(f func()) bool {
	if p == nil || f == nil || !p.TryAcquire() {
		return false
	}
	if !p.ensureWorker() {
		p.Release()
		return false
	}
	p.tasks <- func() {
		defer p.Release()
		f()
	}
	return true
}

// ensureWorker guarantees at least as many workers as in-flight tasks:
// each successful Submit adds one worker until the budget is reached,
// and in-flight tasks never exceed successful Submits holding slots.
func (p *Pool) ensureWorker() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	if p.workers < cap(p.sem) {
		p.workers++
		go p.worker() //lint:allow gospawn persistent pool worker
	}
	return true
}

func (p *Pool) worker() {
	for f := range p.tasks {
		if f == nil {
			return
		}
		f()
	}
}

// Close shuts the persistent workers down. It must only be called after
// all Submit/FanOut activity has completed; pools that live for the
// whole process (shared experiment pools, tests) may skip it — idle
// workers cost only a blocked goroutine each.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	n := p.workers
	p.mu.Unlock()
	for i := 0; i < n; i++ {
		p.tasks <- nil
	}
}

// fanWait tracks helpers that have begun executing a fan-out's work
// function. The caller waits only for those: helpers still queued
// behind busy workers are not waited on — when they eventually run,
// the work function observes no remaining jobs and returns immediately
// (see the FanOut contract).
type fanWait struct {
	active atomic.Int64
	idle   chan struct{}
}

func (f *fanWait) run(work func()) {
	f.active.Add(1)
	work()
	if f.active.Add(-1) == 0 {
		select {
		case f.idle <- struct{}{}:
		default:
		}
	}
}

func (f *fanWait) wait() {
	for f.active.Load() != 0 {
		<-f.idle
	}
}

// FanOut runs work on the calling goroutine and, with inner-layer
// semantics (TryAcquire, never a blocking Acquire), on up to max-1
// helpers drawn from the pool's spare budget. work must be safe for
// concurrent invocation — callers loop over a shared atomic index — and
// must additionally tolerate being invoked after all jobs are claimed
// (returning immediately as a no-op): FanOut returns once the caller's
// own invocation and every helper that has *started* are done, and a
// helper still queued behind a busy worker at that point runs later as
// such a no-op. All claimed jobs are complete when FanOut returns: the
// caller's invocation only returns once no jobs remain unclaimed, and
// started helpers holding claimed jobs are waited on. A nil pool (or
// max <= 1) degrades to one inline invocation, so callers need no
// serial fallback of their own.
func (p *Pool) FanOut(max int, work func()) {
	if p == nil || max <= 1 {
		work()
		return
	}
	f := &fanWait{idle: make(chan struct{}, 1)}
	spawned := 0
	for k := 0; k < max-1; k++ {
		if !p.Submit(func() { f.run(work) }) {
			break
		}
		spawned++
	}
	work()
	if spawned > 0 {
		f.wait()
	}
}
