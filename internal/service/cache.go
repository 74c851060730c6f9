package service

import (
	"container/list"
	"sync"
)

// lruCache is the one fixed-capacity LRU underneath the service-side
// stores: the exact result cache and the canonical result store.  Keys
// are strings, values are opaque; a non-positive capacity disables the
// cache (every Get misses).
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

// Get returns the cached value and refreshes its recency.
func (c *lruCache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Put inserts or refreshes an entry, evicting the least recently used
// one beyond capacity.
func (c *lruCache) Put(key string, val any) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// oldestFirst copies the entries out, least recently used first:
// Putting them back in this order rebuilds the same recency order.
func (c *lruCache) oldestFirst() []lruEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]lruEntry, 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		out = append(out, *el.Value.(*lruEntry))
	}
	return out
}

// Len reports the number of cached entries.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// resultCache is the typed view of the LRU from content hash to
// rendered answer.  An answer is rendered once, when its solve
// completes, and shared by reference: every job and poll it serves
// splices the same immutable bytes.
type resultCache struct {
	lru *lruCache
}

// newResultCache builds a cache holding up to capacity entries; a
// non-positive capacity disables caching (every Get misses).
func newResultCache(capacity int) *resultCache {
	return &resultCache{lru: newLRUCache(capacity)}
}

func (c *resultCache) Get(key string) (*WireSolution, bool) {
	v, ok := c.lru.Get(key)
	if !ok {
		return nil, false
	}
	return v.(*WireSolution), true
}

func (c *resultCache) Put(key string, ws *WireSolution) { c.lru.Put(key, ws) }

func (c *resultCache) Len() int { return c.lru.Len() }
