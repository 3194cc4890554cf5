package service

import "sync"

// The held-set walk: direct nesting, release before the next lock,
// branches on copies, deferred unlocks and goroutines.

type table struct {
	mu sync.RWMutex
}

func (o *outer) direct(t *table) {
	o.mu.Lock()
	t.mu.RLock() // want `t.mu.RLock\(\) while holding o.mu`
	t.mu.RUnlock()
	o.mu.Unlock()
}

func (o *outer) released(i *inner) {
	o.mu.Lock()
	o.mu.Unlock()
	i.poke()
}

// The early-return branch unlocks its own copy of the held set; the
// fall-through path still holds o.mu.
func (o *outer) branchy(i *inner, early bool) {
	o.mu.Lock()
	if early {
		o.mu.Unlock()
		i.poke()
		return
	}
	i.poke() // want `call to service.inner.poke, which acquires a mutex .*while holding o.mu`
	o.mu.Unlock()
}

// A deferred unlock keeps the lock held to the end of the function.
func (o *outer) deferred(t *table) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if t != nil {
		t.mu.Lock() // want `t.mu.Lock\(\) while holding o.mu`
		t.mu.Unlock()
	}
}

// A goroutine starts with nothing held.
func (o *outer) spawn(i *inner) {
	o.mu.Lock()
	defer o.mu.Unlock()
	go func() {
		i.poke()
	}()
}

// A local mutex is a lock like any other; re-locking it deadlocks.
func relock() {
	var mu sync.Mutex
	mu.Lock()
	mu.Lock() // want `mu.Lock\(\) while holding mu`
}

// Every case releases o.mu, so the call after the switch holds nothing.
func (o *outer) everyCaseReleases(i *inner, n int) {
	o.mu.Lock()
	switch n {
	case 0:
		o.mu.Unlock()
	default:
		o.mu.Unlock()
	}
	i.poke()
}

// With no default the switch may run no case, so o.mu may still be
// held.
func (o *outer) someCasesRelease(i *inner, n int) {
	o.mu.Lock()
	switch n {
	case 0:
		o.mu.Unlock()
	}
	i.poke() // want `call to service.inner.poke, which acquires a mutex .*while holding o.mu`
}
