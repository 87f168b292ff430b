// Package cache is a sharded, content-addressed result cache for the
// serving path: LRU+TTL eviction, singleflight request coalescing, and
// atomic hit/miss/eviction/coalesce counters cheap enough to read from a
// live /stats endpoint.
//
// Keys are opaque strings; the serving layer builds them from a canonical
// program digest (core.DigestIR) prefixed by the model name, so
// per-model invalidation is a prefix sweep (InvalidatePrefix) and two
// textually different but canonically identical programs share one entry.
//
// Coalescing uses a leader/follower protocol exposed as Join/Complete so
// a caller that schedules work on its own pool (the serve engine) can
// hold flight leadership across the hand-off: the first caller for a key
// becomes the leader and computes, every concurrent caller for the same
// key waits on the leader's Flight, and the computed value is stored and
// broadcast exactly once. GetOrCompute wraps the protocol for callers
// that compute inline.
package cache

import (
	"container/list"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpidetect/internal/telemetry"
)

// Config sizes a cache; zero values take the documented defaults.
type Config struct {
	Capacity int           // max entries across all shards (default 4096)
	TTL      time.Duration // entry lifetime; 0 = entries never expire
	Shards   int           // shard count (default 16; use 1 for deterministic LRU tests)
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 4096
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.Shards > c.Capacity {
		c.Shards = c.Capacity
	}
	return c
}

// Stats is a point-in-time snapshot of the cache counters, shaped for
// direct JSON encoding by GET /stats. BackingErrors counts Load calls
// that failed with a real error (I/O, decode, injected fault) rather
// than a plain miss — the durable tier's health signal.
type Stats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Coalesced     int64 `json:"coalesced"`
	Evictions     int64 `json:"evictions"`
	Expirations   int64 `json:"expirations"`
	Invalidations int64 `json:"invalidations"`
	Hydrations    int64 `json:"hydrations"`
	BackingErrors int64 `json:"backing_errors"`
	Inflight      int64 `json:"inflight"`
	Size          int64 `json:"size"`
	Capacity      int64 `json:"capacity"`
}

// Backing is an optional durable tier under the in-memory cache (see
// store.Tier). Load must be safe to call concurrently and distinguishes
// a plain miss (false, nil) from a failed load (false, non-nil error) —
// the cache treats both as misses but counts errors separately and
// reports them, so store trouble is never silently folded into the miss
// rate. Store must not block the caller (the store tier enqueues on a
// bounded write-behind queue and drops under pressure); DeletePrefix
// must be synchronous — once it returns, no swept key may be loadable
// again.
type Backing[V any] interface {
	Load(key string) (V, bool, error)
	Store(key string, v V)
	DeletePrefix(prefix string) int
}

// JoinState is the outcome of Join for a key.
type JoinState int

const (
	// Hit: the value was served from the cache; no flight is involved.
	Hit JoinState = iota
	// Lead: the caller owns the computation for this key and MUST call
	// Complete on the returned flight, on every path, or followers hang.
	Lead
	// Wait: another caller is already computing this key; wait on the
	// returned flight's Done channel and read Result.
	Wait
)

// Flight is one in-progress computation shared by a leader and any
// number of followers.
type Flight[V any] struct {
	key     string
	done    chan struct{}
	val     V
	err     error
	noStore bool // set under the shard lock when the key is invalidated mid-flight
}

// Done is closed when the leader completes the flight.
func (f *Flight[V]) Done() <-chan struct{} { return f.done }

// Result blocks until the flight completes and returns its outcome.
func (f *Flight[V]) Result() (V, error) {
	<-f.done
	return f.val, f.err
}

type entry[V any] struct {
	key     string
	val     V
	expires time.Time // zero = never
}

type shard[V any] struct {
	mu      sync.Mutex
	entries map[string]*list.Element // -> *entry[V], also linked into lru
	lru     *list.List               // front = most recently used
	flights map[string]*Flight[V]
}

// Cache is a sharded LRU+TTL cache with singleflight coalescing. The
// zero value is not usable; construct with New.
type Cache[V any] struct {
	stats   Stats // live counters; first, for 64-bit atomics on 32-bit targets
	cfg     Config
	shards  []*shard[V]
	now     func() time.Time // overridable in tests
	backing Backing[V]       // optional durable tier; nil = memory only

}

// New builds a cache.
func New[V any](cfg Config) *Cache[V] {
	cfg = cfg.withDefaults()
	c := &Cache[V]{cfg: cfg, now: time.Now}
	c.shards = make([]*shard[V], cfg.Shards)
	for i := range c.shards {
		c.shards[i] = &shard[V]{
			entries: map[string]*list.Element{},
			lru:     list.New(),
			flights: map[string]*Flight[V]{},
		}
	}
	return c
}

// SetBacking installs a durable tier under the cache: misses fall
// through to it before computing, fresh computes and Puts are persisted
// through it, and prefix invalidations sweep it. Install before the
// cache takes traffic (the field is not synchronized against lookups).
func (c *Cache[V]) SetBacking(b Backing[V]) { c.backing = b }

func (c *Cache[V]) shardFor(key string) *shard[V] {
	h := fnv.New32a()
	h.Write([]byte(key))
	return c.shards[h.Sum32()%uint32(len(c.shards))]
}

// lookupLocked serves key from the shard if present and fresh, expiring
// a stale entry in passing. Caller holds s.mu.
func (c *Cache[V]) lookupLocked(s *shard[V], key string) (V, bool) {
	var zero V
	el, ok := s.entries[key]
	if !ok {
		return zero, false
	}
	e := el.Value.(*entry[V])
	if !e.expires.IsZero() && c.now().After(e.expires) {
		s.lru.Remove(el)
		delete(s.entries, key)
		atomic.AddInt64(&c.stats.Size, -1)
		atomic.AddInt64(&c.stats.Expirations, 1)
		return zero, false
	}
	s.lru.MoveToFront(el)
	return e.val, true
}

// storeLocked inserts (or refreshes) key, evicting from the shard's LRU
// tail past capacity. Caller holds s.mu.
func (c *Cache[V]) storeLocked(s *shard[V], key string, v V) {
	if el, ok := s.entries[key]; ok {
		e := el.Value.(*entry[V])
		e.val = v
		e.expires = c.expiry()
		s.lru.MoveToFront(el)
		return
	}
	perShard := (c.cfg.Capacity + len(c.shards) - 1) / len(c.shards)
	for s.lru.Len() >= perShard {
		back := s.lru.Back()
		if back == nil {
			break
		}
		evicted := back.Value.(*entry[V])
		s.lru.Remove(back)
		delete(s.entries, evicted.key)
		atomic.AddInt64(&c.stats.Size, -1)
		atomic.AddInt64(&c.stats.Evictions, 1)
	}
	s.entries[key] = s.lru.PushFront(&entry[V]{key: key, val: v, expires: c.expiry()})
	atomic.AddInt64(&c.stats.Size, 1)
}

func (c *Cache[V]) expiry() time.Time {
	if c.cfg.TTL <= 0 {
		return time.Time{}
	}
	return c.now().Add(c.cfg.TTL)
}

// hydrate falls through to the backing tier on a memory miss, promoting
// a loaded value into the LRU. The promoted value is NOT re-persisted —
// only fresh computes and Puts write through. A failed load (as opposed
// to a plain miss) is counted in backing_errors and served as a miss, so
// a sick durable tier degrades the cache to memory-only rather than
// failing lookups. Caller must not hold s.mu.
func (c *Cache[V]) hydrate(s *shard[V], key string) (V, bool) {
	var zero V
	if c.backing == nil {
		return zero, false
	}
	v, ok, err := c.backing.Load(key)
	if err != nil {
		atomic.AddInt64(&c.stats.BackingErrors, 1)
		return zero, false
	}
	if !ok {
		return zero, false
	}
	s.mu.Lock()
	c.storeLocked(s, key, v)
	s.mu.Unlock()
	atomic.AddInt64(&c.stats.Hydrations, 1)
	return v, true
}

// Join looks up key and, on a miss, either joins the in-flight
// computation (Wait) or makes the caller its leader (Lead). A memory
// miss falls through to the backing tier first — a hydrated value is
// promoted into the LRU and served as a Hit, so a restarted process
// never recomputes what the durable tier already holds. A Lead caller
// must call Complete on the flight on every path.
func (c *Cache[V]) Join(key string) (V, *Flight[V], JoinState) {
	var zero V
	s := c.shardFor(key)
	s.mu.Lock()
	if v, ok := c.lookupLocked(s, key); ok {
		s.mu.Unlock()
		atomic.AddInt64(&c.stats.Hits, 1)
		return v, nil, Hit
	}
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		atomic.AddInt64(&c.stats.Coalesced, 1)
		return zero, f, Wait
	}
	if c.backing == nil {
		f := &Flight[V]{key: key, done: make(chan struct{})}
		s.flights[key] = f
		s.mu.Unlock()
		atomic.AddInt64(&c.stats.Misses, 1)
		atomic.AddInt64(&c.stats.Inflight, 1)
		return zero, f, Lead
	}
	s.mu.Unlock()
	if v, ok := c.hydrate(s, key); ok {
		atomic.AddInt64(&c.stats.Hits, 1)
		return v, nil, Hit
	}
	// The shard was unlocked across the backing lookup; re-check both
	// the entry and the flight table before claiming leadership.
	s.mu.Lock()
	if v, ok := c.lookupLocked(s, key); ok {
		s.mu.Unlock()
		atomic.AddInt64(&c.stats.Hits, 1)
		return v, nil, Hit
	}
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		atomic.AddInt64(&c.stats.Coalesced, 1)
		return zero, f, Wait
	}
	f := &Flight[V]{key: key, done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()
	atomic.AddInt64(&c.stats.Misses, 1)
	atomic.AddInt64(&c.stats.Inflight, 1)
	return zero, f, Lead
}

// Complete finishes a flight obtained from Join with state Lead: the
// value is stored (unless err is non-nil or the key was invalidated
// mid-flight) and broadcast to every waiting follower. A stored value
// is also persisted through the backing tier — never-store outcomes
// (errors, including wall timeouts, and mid-flight invalidations) are
// kept out of the durable tier by the same condition that keeps them
// out of the LRU.
func (c *Cache[V]) Complete(f *Flight[V], v V, err error) {
	s := c.shardFor(f.key)
	s.mu.Lock()
	delete(s.flights, f.key)
	stored := err == nil && !f.noStore
	if stored {
		c.storeLocked(s, f.key, v)
	}
	s.mu.Unlock()
	if stored && c.backing != nil {
		c.backing.Store(f.key, v)
	}
	f.val, f.err = v, err
	close(f.done)
	atomic.AddInt64(&c.stats.Inflight, -1)
}

// GetOrCompute serves key from the cache, coalescing concurrent callers:
// the first caller computes fn inline, everyone else blocks on the same
// flight. fn errors are broadcast but never cached.
func (c *Cache[V]) GetOrCompute(key string, fn func() (V, error)) (V, error) {
	v, f, st := c.Join(key)
	switch st {
	case Hit:
		return v, nil
	case Wait:
		return f.Result()
	}
	v, err := fn()
	c.Complete(f, v, err)
	return v, err
}

// InvalidatePrefix removes every cached entry whose key starts with
// prefix and marks matching in-flight computations no-store, so a
// verdict computed against a model that was since replaced is broadcast
// to its waiters but never cached. The sweep extends through the
// backing tier (synchronously — after return, no doomed key can be
// hydrated back). Returns the number of stored in-memory entries
// removed.
func (c *Cache[V]) InvalidatePrefix(prefix string) int {
	removed := 0
	for _, s := range c.shards {
		s.mu.Lock()
		for key, el := range s.entries {
			if strings.HasPrefix(key, prefix) {
				s.lru.Remove(el)
				delete(s.entries, key)
				atomic.AddInt64(&c.stats.Size, -1)
				removed++
			}
		}
		for key, f := range s.flights {
			if strings.HasPrefix(key, prefix) {
				f.noStore = true
			}
		}
		s.mu.Unlock()
	}
	if c.backing != nil {
		c.backing.DeletePrefix(prefix)
	}
	atomic.AddInt64(&c.stats.Invalidations, int64(removed))
	return removed
}

// Len reports the number of stored entries.
func (c *Cache[V]) Len() int { return int(atomic.LoadInt64(&c.stats.Size)) }

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	s := telemetry.Snapshot(&c.stats)
	s.Capacity = int64(c.cfg.Capacity)
	return s
}
