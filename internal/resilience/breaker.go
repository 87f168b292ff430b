// Package resilience holds the serving stack's degradation primitives:
// a consecutive-failure circuit breaker with half-open probing, and a
// subsystem health aggregator behind GET /v1/readyz. Both are plain
// concurrency-safe values with no dependencies, so every layer (serve's
// per-tool breakers, store's tier I/O breakers) can use them without
// import cycles.
package resilience

import (
	"sync"
	"sync/atomic"
	"time"

	"mpidetect/internal/telemetry"
)

// BreakerState is a breaker's position in the trip/probe cycle.
type BreakerState int32

const (
	// Closed: healthy; every call is allowed.
	Closed BreakerState = iota
	// Open: tripped; calls are rejected until the cooldown elapses.
	Open
	// HalfOpen: cooled down; exactly one probe call is allowed through,
	// and its outcome decides between Closed and another Open period.
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig sizes a breaker; zero values take the documented
// defaults.
type BreakerConfig struct {
	// Failures is the consecutive-failure count that trips the breaker
	// (default 5).
	Failures int
	// Cooldown is how long a tripped breaker stays open before allowing
	// a half-open probe (default 30s).
	Cooldown time.Duration
	// OnChange, when set, is invoked (outside the breaker lock) on every
	// state transition.
	OnChange func(from, to BreakerState)
	// Clock overrides time.Now in tests.
	Clock func() time.Time
}

// BreakerStats is a point-in-time snapshot of one breaker, shaped for
// the /v1/stats resilience section.
type BreakerStats struct {
	State       string `json:"state"`
	Failures    int64  `json:"failures"`
	Trips       int64  `json:"trips"`
	Rejected    int64  `json:"rejected"`
	Consecutive int    `json:"consecutive_failures"` // after the int64s, for 32-bit alignment
}

// Breaker is a consecutive-failure circuit breaker. The zero value is
// not usable; construct with NewBreaker. Callers pair Allow with exactly
// one of Record or Skip:
//
//	if !b.Allow() { degrade }
//	v, err := op()
//	b.Record(err == nil)   // or b.Skip() when the outcome is inconclusive
type Breaker struct {
	stats BreakerStats // live counters; first, for 64-bit atomics on 32-bit targets
	cfg   BreakerConfig

	mu          sync.Mutex
	state       BreakerState
	consecutive int
	openedAt    time.Time
	probing     bool // a half-open probe is in flight
}

// NewBreaker builds a breaker in the Closed state.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Failures <= 0 {
		cfg.Failures = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 30 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Breaker{cfg: cfg}
}

// transitionLocked moves to state `to`, returning the change hook to run
// after the lock is released (nil when the state did not change).
func (b *Breaker) transitionLocked(to BreakerState) func() {
	from := b.state
	if from == to {
		return nil
	}
	b.state = to
	if fn := b.cfg.OnChange; fn != nil {
		return func() { fn(from, to) }
	}
	return nil
}

// Allow reports whether a call may proceed. Open breakers reject until
// the cooldown elapses, then admit exactly one half-open probe at a
// time; the caller must finish the probe with Record or Skip.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	var notify func()
	allowed := false
	switch b.state {
	case Closed:
		allowed = true
	case Open:
		if b.cfg.Clock().Sub(b.openedAt) >= b.cfg.Cooldown {
			notify = b.transitionLocked(HalfOpen)
			b.probing = true
			allowed = true
		}
	case HalfOpen:
		if !b.probing {
			b.probing = true
			allowed = true
		}
	}
	if !allowed {
		atomic.AddInt64(&b.stats.Rejected, 1)
	}
	b.mu.Unlock()
	if notify != nil {
		notify()
	}
	return allowed
}

// Record finishes an allowed call: success resets the failure streak
// (closing a half-open breaker), failure extends it and trips or
// re-opens the breaker.
func (b *Breaker) Record(ok bool) {
	b.mu.Lock()
	var notify func()
	if ok {
		b.consecutive = 0
		if b.state == HalfOpen {
			b.probing = false
			notify = b.transitionLocked(Closed)
		}
	} else {
		atomic.AddInt64(&b.stats.Failures, 1)
		b.consecutive++
		switch b.state {
		case HalfOpen:
			// The probe failed: another full cooldown.
			b.probing = false
			b.openedAt = b.cfg.Clock()
			atomic.AddInt64(&b.stats.Trips, 1)
			notify = b.transitionLocked(Open)
		case Closed:
			if b.consecutive >= b.cfg.Failures {
				b.openedAt = b.cfg.Clock()
				atomic.AddInt64(&b.stats.Trips, 1)
				notify = b.transitionLocked(Open)
			}
		}
	}
	b.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// Skip finishes an allowed call whose outcome says nothing about health
// (a canceled request, for instance): a half-open probe slot is released
// for the next caller without changing state.
func (b *Breaker) Skip() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// State reports the breaker's current position. An Open breaker past its
// cooldown still reports Open until some Allow promotes it — State is a
// pure read.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Snapshot is a typed point-in-time view of a breaker for pollers: the
// counters and failure streak of BreakerStats, plus the state as a
// BreakerState (its wire string is BreakerStats.State) and when an open
// breaker opened. Pollers that rebuild derived state from many breakers
// — the router's hash-ring membership, for one — read Snapshot on their
// own cadence instead of mutating shared state from OnChange, which
// runs on whatever goroutine drove the transition.
type Snapshot struct {
	BreakerStats
	State    BreakerState
	OpenedAt time.Time // zero unless State is Open
}

// Snapshot captures the breaker's position under one lock acquisition,
// so state and streak can never straddle a transition.
func (b *Breaker) Snapshot() Snapshot {
	s := Snapshot{BreakerStats: telemetry.Snapshot(&b.stats)}
	b.mu.Lock()
	s.State, s.Consecutive = b.state, b.consecutive
	if b.state == Open {
		s.OpenedAt = b.openedAt
	}
	b.mu.Unlock()
	s.BreakerStats.State = s.State.String()
	return s
}

// Stats snapshots the breaker counters.
func (b *Breaker) Stats() BreakerStats { return b.Snapshot().BreakerStats }
