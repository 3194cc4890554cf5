package service

import "sync"

type alpha struct {
	mu sync.Mutex
}

type beta struct {
	mu sync.Mutex
}

// The alpha->beta leg of this cycle runs only during init, before any
// other goroutine exists, so it carries a waiver; the beta->alpha leg
// is still a finding.
func (a *alpha) first(b *beta) {
	a.mu.Lock()
	defer a.mu.Unlock()
	//lint:allow lockorder the alpha->beta leg runs single-threaded during init, before the server accepts work
	b.take()
}

func (b *beta) take() {
	b.mu.Lock()
	b.mu.Unlock()
}

func (b *beta) second(a *alpha) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.take() // want `call to service.alpha.take, which acquires a mutex .*while holding b.mu`
}

func (a *alpha) take() {
	a.mu.Lock()
	a.mu.Unlock()
}
