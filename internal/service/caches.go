package service

import (
	"container/list"
	"sync"
)

// resultCache is the bounded LRU over finished /analyze responses, keyed
// by the full request fingerprint (canonical spec + resolved parameters).
// Values are the marshaled response bytes, so a warm hit skips not only
// the analysis but the whole compile-and-encode path.
type resultCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List
	byKey map[string]*list.Element
}

type resultEntry struct {
	key  string
	body []byte
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		max:   capacity,
		ll:    list.New(),
		byKey: make(map[string]*list.Element, capacity),
	}
}

func (rc *resultCache) get(key string) ([]byte, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	el, ok := rc.byKey[key]
	if !ok {
		return nil, false
	}
	rc.ll.MoveToFront(el)
	return el.Value.(*resultEntry).body, true
}

func (rc *resultCache) put(key string, body []byte) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if el, ok := rc.byKey[key]; ok {
		rc.ll.MoveToFront(el)
		el.Value.(*resultEntry).body = body
		return
	}
	rc.byKey[key] = rc.ll.PushFront(&resultEntry{key: key, body: body})
	if rc.ll.Len() > rc.max {
		oldest := rc.ll.Back()
		rc.ll.Remove(oldest)
		delete(rc.byKey, oldest.Value.(*resultEntry).key)
	}
}

func (rc *resultCache) len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.ll.Len()
}
