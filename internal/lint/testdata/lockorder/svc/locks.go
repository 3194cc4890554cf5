// Golden for the lockorder rule: no mutex is taken while another is
// held. Each nested acquisition site is a finding: both legs of a
// two-lock cycle through method calls, a self-deadlock through a
// callee, and a consistently ordered pair, which the rule rejects too.
package service

import "sync"

type registry struct {
	mu sync.Mutex
}

type queue struct {
	mu sync.Mutex
}

// lockBoth acquires registry.mu then (through grab) queue.mu.
func (r *registry) lockBoth(q *queue) {
	r.mu.Lock()
	defer r.mu.Unlock()
	q.grab() // want `call to service.queue.grab, which acquires a mutex \(service.queue.grab -> sync.Mutex.Lock\), while holding r.mu`
}

func (q *queue) grab() {
	q.mu.Lock()
	q.mu.Unlock()
}

// lockBothReversed closes the cycle: queue.mu then registry.mu.
func (q *queue) lockBothReversed(r *registry) {
	q.mu.Lock()
	defer q.mu.Unlock()
	r.grab() // want `call to service.registry.grab, which acquires a mutex .*while holding q.mu`
}

func (r *registry) grab() {
	r.mu.Lock()
	r.mu.Unlock()
}

type counter struct {
	mu sync.Mutex
}

// bump re-acquires its own lock through a callee: a one-node cycle.
func (c *counter) bump() {
	c.mu.Lock()
	c.inc() // want `call to service.counter.inc, which acquires a mutex .*while holding c.mu`
	c.mu.Unlock()
}

func (c *counter) inc() {
	c.mu.Lock()
	c.mu.Unlock()
}

type outer struct {
	mu sync.Mutex
}

type inner struct {
	mu sync.Mutex
}

// Both paths take outer.mu before inner.mu. The order is consistent,
// but the rule forbids the nesting itself: a later path in the other
// order would close a cycle no single change shows.
func (o *outer) consistent(i *inner) {
	o.mu.Lock()
	defer o.mu.Unlock()
	i.poke() // want `call to service.inner.poke, which acquires a mutex .*while holding o.mu`
}

func (o *outer) alsoConsistent(i *inner) {
	o.mu.Lock()
	i.poke() // want `call to service.inner.poke, which acquires a mutex .*while holding o.mu`
	o.mu.Unlock()
}

func (i *inner) poke() {
	i.mu.Lock()
	i.mu.Unlock()
}
