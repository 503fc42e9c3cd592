// Package lru is a fixed-capacity least-recently-used map guarded by a
// mutex: the one bound shared by the engine's plan caches (the
// text-keyed prepared-plan cache and the GHD and attribute-order memos).
package lru

import (
	"container/list"
	"sync"
)

// Cache maps keys to values, holding at most its capacity; inserting
// past it evicts the least recently used entry. Safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu  sync.Mutex
	cap int
	m   map[K]*list.Element
	ll  *list.List // front = most recently used
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding at most capacity (> 0) entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{cap: capacity, m: make(map[K]*list.Element), ll: list.New()}
}

// Get returns the value under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores v under k as the most recently used entry, evicting the
// least recently used one when the cache is full.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		el.Value.(*entry[K, V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.cap {
		old := c.ll.Back()
		c.ll.Remove(old)
		delete(c.m, old.Value.(*entry[K, V]).key)
	}
	c.m[k] = c.ll.PushFront(&entry[K, V]{key: k, val: v})
}

// Len reports the number of entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
