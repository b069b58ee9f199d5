package main

import (
	"container/list"
	"sync"
)

// lruCache is a bounded LRU of encoded hit responses. Keys embed the
// corpus generation, so entries from before an ingest can never be
// served afterwards — they simply stop being looked up and age out.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *lruEntry
	byKey map[string]*list.Element
}

type lruEntry struct {
	key   string
	value []byte
}

// newLRUCache returns a cache holding up to cap entries; cap ≤ 0 disables
// caching (every lookup misses, every store is dropped).
func newLRUCache(cap int) *lruCache {
	return &lruCache{cap: cap, order: list.New(), byKey: map[string]*list.Element{}}
}

// get returns the cached bytes for key and whether they were present.
func (c *lruCache) get(key string) ([]byte, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).value, true
}

// put stores value under key, evicting the least recently used entry when
// the cache is full.
func (c *lruCache) put(key string, value []byte) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*lruEntry).value = value
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*lruEntry).key)
	}
	c.byKey[key] = c.order.PushFront(&lruEntry{key: key, value: value})
}

// len returns the number of cached entries.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
