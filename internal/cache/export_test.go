package cache

import "sync/atomic"

// Test-only API: production code does not call it.

// Get serves key if cached and fresh, falling through to the backing
// tier on a memory miss.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	v, ok := c.lookupLocked(s, key)
	s.mu.Unlock()
	if !ok {
		v, ok = c.hydrate(s, key)
	}
	if ok {
		atomic.AddInt64(&c.stats.Hits, 1)
	} else {
		atomic.AddInt64(&c.stats.Misses, 1)
	}
	return v, ok
}

// Put stores key unconditionally (no coalescing bookkeeping) and
// persists it through the backing tier.
func (c *Cache[V]) Put(key string, v V) {
	s := c.shardFor(key)
	s.mu.Lock()
	c.storeLocked(s, key, v)
	s.mu.Unlock()
	if c.backing != nil {
		c.backing.Store(key, v)
	}
}
