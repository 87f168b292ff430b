// Package events is a typed in-process publish/subscribe bus for the
// serving tier. The engine publishes verdict completions, cache
// invalidations, model reloads, and async-job transitions; any number of
// subscribers — the HTTP transport's GET /v1/events stream, tests, or
// future replication hooks — receive them on buffered channels.
//
// Delivery is best-effort and never blocks the publisher: each
// subscription owns a bounded buffer, and an event that does not fit is
// dropped for that subscriber (and counted bus-wide). That is the right
// contract for an observability surface on a hot serving path — a slow
// SSE client must not be able to apply backpressure to the engine's
// workers. Subscribers that need loss-free history belong on the
// job-results API, not the bus.
package events

import (
	"sync"
	"sync/atomic"
	"time"

	"mpidetect/internal/telemetry"
)

// Type names one kind of event. Types are dot-namespaced strings so the
// wire encoding (SSE event names, JSON) needs no mapping table.
type Type string

// The event types published by the serving engine.
const (
	// VerdictCompleted fires once per analyzed program (sync, batch, and
	// job paths alike) when its ensemble verdict is ready.
	VerdictCompleted Type = "verdict.completed"
	// CacheInvalidated fires when a cache sweep removes entries (model
	// reload, tool replacement, explicit invalidation).
	CacheInvalidated Type = "cache.invalidated"
	// ModelReloaded fires when a registry slot is written (initial
	// registration or replacement).
	ModelReloaded Type = "model.reloaded"
	// JobUpdated fires on every async-job state transition
	// (queued -> running -> completed/failed/canceled).
	JobUpdated Type = "job.updated"
	// SnapshotCreated fires when an admin snapshot of the durable
	// verdict store lands on disk.
	SnapshotCreated Type = "snapshot.created"
	// StoreCompacted fires when the durable store finishes a compaction
	// pass (automatic at segment roll, or explicit).
	StoreCompacted Type = "store.compacted"
	// FaultRecovered fires when a pooled goroutine recovers a panic
	// (classify worker, tool runner, job worker, tier writer) instead of
	// crashing the process.
	FaultRecovered Type = "fault.recovered"
	// BreakerUpdated fires on every circuit-breaker state transition
	// (a tool breaker tripping or closing, the store tier changing mode).
	BreakerUpdated Type = "breaker.updated"
	// RouterEjected fires when the front-tier router ejects a backend
	// from its hash ring (health probes or proxy failures tripped the
	// backend's breaker).
	RouterEjected Type = "router.ejected"
	// RouterReadmitted fires when an ejected backend passes its half-open
	// probe and rejoins the router's hash ring.
	RouterReadmitted Type = "router.readmitted"
)

// Event is one published occurrence. Seq is a bus-wide monotonically
// increasing sequence number, so a subscriber can detect its own gaps
// (drops) by watching for holes.
type Event struct {
	Seq  uint64    `json:"seq"`
	Type Type      `json:"type"`
	Time time.Time `json:"time"`
	Data any       `json:"data,omitempty"`
}

// Stats is a point-in-time snapshot of the bus counters, shaped for
// direct JSON encoding by GET /v1/stats.
type Stats struct {
	Published   int64 `json:"published"`
	Delivered   int64 `json:"delivered"`
	Dropped     int64 `json:"dropped"`
	Subscribers int64 `json:"subscribers"`
}

// DefaultBuffer is the per-subscription channel capacity used when
// Subscribe is called with a non-positive buffer.
const DefaultBuffer = 64

// Subscription is one subscriber's view of the bus. Receive from C();
// Close when done (idempotent). After Close, C() is closed.
type Subscription struct {
	bus   *Bus
	ch    chan Event
	types map[Type]struct{} // nil = all types
	once  sync.Once
}

// C returns the subscription's event channel. It is closed by Close.
func (s *Subscription) C() <-chan Event { return s.ch }

// Close unregisters the subscription and closes its channel. Safe to
// call more than once and concurrently with Publish.
func (s *Subscription) Close() {
	s.once.Do(func() {
		s.bus.mu.Lock()
		delete(s.bus.subs, s)
		s.bus.mu.Unlock()
		// Publish only sends while holding bus.mu and the subscription is
		// registered, so no send can race this close.
		close(s.ch)
	})
}

// wants reports whether the subscription's type filter admits t.
func (s *Subscription) wants(t Type) bool {
	if s.types == nil {
		return true
	}
	_, ok := s.types[t]
	return ok
}

// Bus is a typed pub/sub bus. The zero value is not usable; construct
// with NewBus.
type Bus struct {
	stats Stats // live counters; first, for 64-bit atomics on 32-bit targets
	mu    sync.Mutex
	subs  map[*Subscription]struct{}
	seq   atomic.Uint64 // not a counter: it stamps each event's Seq
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{subs: map[*Subscription]struct{}{}}
}

// Subscribe registers a new subscriber. buffer sizes its channel
// (DefaultBuffer when non-positive); types filters delivery to the named
// event types (none = every type).
func (b *Bus) Subscribe(buffer int, types ...Type) *Subscription {
	if buffer <= 0 {
		buffer = DefaultBuffer
	}
	s := &Subscription{bus: b, ch: make(chan Event, buffer)}
	if len(types) > 0 {
		s.types = make(map[Type]struct{}, len(types))
		for _, t := range types {
			s.types[t] = struct{}{}
		}
	}
	b.mu.Lock()
	b.subs[s] = struct{}{}
	b.mu.Unlock()
	return s
}

// Publish delivers an event to every matching subscriber without ever
// blocking: a subscriber whose buffer is full loses this event (counted
// on the subscription and the bus). Returns the published event, Seq and
// Time stamped.
func (b *Bus) Publish(t Type, data any) Event {
	ev := Event{Seq: b.seq.Add(1), Type: t, Time: time.Now(), Data: data}
	atomic.AddInt64(&b.stats.Published, 1)
	b.mu.Lock()
	for s := range b.subs {
		if !s.wants(t) {
			continue
		}
		select {
		case s.ch <- ev:
			atomic.AddInt64(&b.stats.Delivered, 1)
		default:
			atomic.AddInt64(&b.stats.Dropped, 1)
		}
	}
	b.mu.Unlock()
	return ev
}

// Stats snapshots the counters.
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	n := len(b.subs)
	b.mu.Unlock()
	s := telemetry.Snapshot(&b.stats)
	s.Subscribers = int64(n)
	return s
}
