package workpool

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestCapClamp(t *testing.T) {
	if got := New(0).Cap(); got != 1 {
		t.Fatalf("New(0).Cap() = %d, want 1", got)
	}
	if got := New(-3).Cap(); got != 1 {
		t.Fatalf("New(-3).Cap() = %d, want 1", got)
	}
	if got := New(7).Cap(); got != 7 {
		t.Fatalf("New(7).Cap() = %d, want 7", got)
	}
}

func TestTryAcquireBudget(t *testing.T) {
	p := New(2)
	if !p.TryAcquire() || !p.TryAcquire() {
		t.Fatal("expected two successful TryAcquire on a pool of 2")
	}
	if p.TryAcquire() {
		t.Fatal("TryAcquire succeeded past the budget")
	}
	p.Release()
	if !p.TryAcquire() {
		t.Fatal("TryAcquire failed after a Release")
	}
}

func TestSubmitRunsAndReleases(t *testing.T) {
	p := New(2)
	defer p.Close()
	var ran sync.WaitGroup
	var count atomic.Int64
	for i := 0; i < 50; i++ {
		ran.Add(1)
		if !p.Submit(func() { count.Add(1); ran.Done() }) {
			// Budget full: run inline like a fan-out caller would.
			count.Add(1)
			ran.Done()
		}
	}
	ran.Wait()
	if count.Load() != 50 {
		t.Fatalf("ran %d tasks, want 50", count.Load())
	}
	// All slots must have been released.
	if !p.TryAcquire() || !p.TryAcquire() {
		t.Fatal("slots not released after submitted tasks completed")
	}
	if p.TryAcquire() {
		t.Fatal("TryAcquire succeeded past the budget")
	}
	p.Release()
	p.Release()
}

func TestInUse(t *testing.T) {
	p := New(3)
	if got := p.InUse(); got != 0 {
		t.Fatalf("idle pool InUse() = %d, want 0", got)
	}
	p.Acquire()
	p.Acquire()
	if got := p.InUse(); got != 2 {
		t.Fatalf("InUse() = %d after two Acquires, want 2", got)
	}
	p.Release()
	if got := p.InUse(); got != 1 {
		t.Fatalf("InUse() = %d after a Release, want 1", got)
	}
	p.Release()
	if got := p.InUse(); got != 0 {
		t.Fatalf("InUse() = %d after all Releases, want 0", got)
	}
}

func TestSubmitNilPool(t *testing.T) {
	var p *Pool
	if p.Submit(func() {}) {
		t.Fatal("Submit on a nil pool must report false")
	}
	p.Close() // must not panic
}

func TestSubmitAfterClose(t *testing.T) {
	p := New(2)
	p.Submit(func() {})
	p.Close()
	if p.Submit(func() {}) {
		t.Fatal("Submit after Close must report false")
	}
	p.Close() // idempotent
}

// TestFanOutCompletesClaimedJobs checks the core FanOut contract: every
// job claimed off the shared index is complete when FanOut returns,
// across pools smaller and larger than the fan-out width.
func TestFanOutCompletesClaimedJobs(t *testing.T) {
	for _, budget := range []int{1, 2, 4, 16} {
		p := New(budget)
		for rep := 0; rep < 20; rep++ {
			const jobs = 200
			var next atomic.Int64
			done := make([]atomic.Bool, jobs)
			p.FanOut(8, func() {
				for {
					i := next.Add(1) - 1
					if i >= jobs {
						return
					}
					done[i].Store(true)
				}
			})
			for i := range done {
				if !done[i].Load() {
					t.Fatalf("budget=%d rep=%d: job %d unfinished after FanOut", budget, rep, i)
				}
			}
		}
		p.Close()
	}
}

// TestFanOutLateHelperNoOp asserts that a helper starting after the
// fan-out returned observes no work (the documented contract) rather
// than re-running jobs.
func TestFanOutLateHelperNoOp(t *testing.T) {
	p := New(2)
	defer p.Close()
	// Occupy one worker so a FanOut helper gets queued behind it.
	release := make(chan struct{})
	var blockerStarted sync.WaitGroup
	blockerStarted.Add(1)
	if !p.Submit(func() { blockerStarted.Done(); <-release }) {
		t.Fatal("blocker Submit failed on empty pool")
	}
	blockerStarted.Wait()

	const jobs = 32
	var next, runs atomic.Int64
	p.FanOut(2, func() {
		for {
			if next.Add(1) > jobs {
				return
			}
			runs.Add(1)
		}
	})
	if runs.Load() != jobs {
		t.Fatalf("caller completed %d of %d jobs", runs.Load(), jobs)
	}
	close(release)
	// The queued helper eventually runs as a no-op; Close drains after it.
	p.Close()
	if runs.Load() != jobs {
		t.Fatalf("late helper re-ran jobs: %d > %d", runs.Load(), jobs)
	}
}

// TestNestedBudget exercises the outer-Acquire / inner-TryAcquire nesting
// protocol and asserts the combined concurrency never exceeds the budget.
func TestNestedBudget(t *testing.T) {
	const budget = 4
	p := New(budget)
	var running, peak atomic.Int64

	enter := func() {
		if r := running.Add(1); r > peak.Load() {
			peak.Store(r)
		}
	}
	leave := func() { running.Add(-1) }

	var outer sync.WaitGroup
	for i := 0; i < 16; i++ {
		outer.Add(1)
		go func() {
			defer outer.Done()
			p.Acquire()
			defer p.Release()
			enter()
			defer leave()
			// Inner fan-out: helpers only while the shared budget allows.
			var inner sync.WaitGroup
			for j := 0; j < 8; j++ {
				if !p.TryAcquire() {
					continue // inline fallback: already counted as running
				}
				inner.Add(1)
				go func() {
					defer inner.Done()
					defer p.Release()
					enter()
					defer leave()
				}()
			}
			inner.Wait()
		}()
	}
	outer.Wait()
	if got := peak.Load(); got > budget {
		t.Fatalf("peak concurrency %d exceeded budget %d", got, budget)
	}
	if running.Load() != 0 {
		t.Fatalf("running count %d after completion", running.Load())
	}
}
