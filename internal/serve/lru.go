package serve

import (
	"container/list"
	"sync"
)

// cacheKey identifies one classified antenna state: callers bump the
// revision whenever the antenna's traffic vector changes, and the key also
// pins the model revision the verdict was computed under, so a verdict
// from a superseded snapshot can never be served after a swap — even if a
// racing handler inserts it after the swap's purge.
type cacheKey struct {
	antenna  uint32
	revision uint64
	// model is the ModelSnapshot.Revision the verdict was computed with.
	model uint64
}

// lru is a fixed-capacity LRU safe for concurrent handlers: the classify
// verdict cache (cacheKey → cluster) and the forecast cache (forecastKey →
// ForecastResponse) are both one. A capacity ≤ 0 disables caching
// entirely.
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent; values are *lruEntry[K, V]
	byKey map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{
		cap:   capacity,
		order: list.New(),
		byKey: make(map[K]*list.Element),
	}
}

// get returns the cached value for key and marks it most-recently used.
func (c *lru[K, V]) get(key K) (V, bool) {
	var zero V
	if c.cap <= 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// put inserts or refreshes key, evicting the least-recently used entry
// beyond capacity.
func (c *lru[K, V]) put(key K, val V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*lruEntry[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&lruEntry[K, V]{key: key, val: val})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*lruEntry[K, V]).key)
	}
}

// len reports the current entry count.
func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// purge drops every entry — called on model-snapshot swap so entries
// computed by the previous model free their capacity immediately instead
// of aging out. The model revision in both key types is what keeps a
// racing insert after the purge from being served under the new model.
func (c *lru[K, V]) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	clear(c.byKey)
}
