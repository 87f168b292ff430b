// Package router is the front tier of the serving stack: a digest-
// sharded reverse proxy that spreads classify/analyze traffic across N
// mpidetectd backends by consistent hashing on the programs' canonical
// routing digests. Every program deterministically owns one backend, so
// each backend's verdict cache and durable store hold a disjoint slice
// of the corpus and aggregate cache capacity scales linearly with the
// fleet — the same request hitting the router twice hits the same
// backend's warm entry twice.
//
// Robustness is the core of the design, not an afterthought:
//
//   - Active health checks ride each backend's GET /v1/readyz and feed a
//     per-backend resilience.Breaker; enough consecutive failures (dead
//     socket, 5xx, draining) eject the backend from the ring, and a
//     half-open probe per cooldown re-admits it once it answers again.
//   - Proxy failures (connect errors, 5xx) retry with jittered backoff
//     on the key's next ring replica — only idempotent, content-
//     addressed work is ever retried, and a response that has started
//     streaming is never replayed.
//   - The idempotent classify path hedges tail latency: when a backend
//     sits on a sub-request past the router's latency EWMA + deviation
//     band, a second copy goes to the next replica and the first
//     response wins (the loser is canceled).
//   - Ejection remaps only the dead backend's keys (consistent-hashing
//     property), and a restarted backend reclaims exactly its old keys,
//     lining back up with its still-warm durable store.
//
// The router is itself a good citizen of the stack's health protocol:
// StartDraining flips its own /v1/readyz to draining so the tier above
// ejects it while in-flight requests finish.
package router

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpidetect/internal/core"
	"mpidetect/internal/events"
	"mpidetect/internal/fault"
	"mpidetect/internal/resilience"
	"mpidetect/internal/telemetry"
)

// Fault points compiled into the router's hot paths, armable by tests
// and the backends' chaos tooling.
var (
	// FaultProxy fires in front of every proxied sub-request: error mode
	// is a dead backend socket (the retry path reroutes), latency mode a
	// slow backend (the hedge path races it).
	FaultProxy = fault.Register("router.proxy")
	// FaultHealth fires inside the active health probe: error mode makes
	// probes fail, driving breaker trips and ring ejections.
	FaultHealth = fault.Register("router.health")
)

// maxProxyBody bounds a buffered backend response.
const maxProxyBody = 64 << 20

// Config sizes the router; zero values take the documented defaults.
type Config struct {
	// Backends are the backend base URLs (e.g. http://127.0.0.1:9081).
	// At least one is required.
	Backends []string
	// Replicas is the virtual-node count per backend on the hash ring
	// (default 128).
	Replicas int

	// CheckInterval is the active health-check period (default 500ms);
	// CheckTimeout bounds one readyz probe (default 2s).
	CheckInterval time.Duration
	CheckTimeout  time.Duration

	// BreakerFailures consecutive probe/proxy failures eject a backend
	// from the ring (default 3); BreakerCooldown is how long it stays
	// ejected before a half-open probe may re-admit it (default 5s).
	BreakerFailures int
	BreakerCooldown time.Duration

	// MaxAttempts caps how many ring replicas one shard of work may try,
	// first attempt included (default 3, clamped to the backend count).
	MaxAttempts int
	// RetryBackoff is the base of the jittered exponential backoff
	// between attempts (default 10ms).
	RetryBackoff time.Duration

	// HedgeAfter fixes the classify hedging delay. 0 (the default)
	// adapts it to the observed latency EWMA + 3 deviations; negative
	// disables hedging.
	HedgeAfter time.Duration
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = defaultReplicas
	}
	if c.CheckInterval <= 0 {
		c.CheckInterval = 500 * time.Millisecond
	}
	if c.CheckTimeout <= 0 {
		c.CheckTimeout = 2 * time.Second
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	return c
}

// backend is one member of the fleet: its breaker plus live counters.
type backend struct {
	stats   BackendStats // live counters; first, for 64-bit atomics on 32-bit targets
	name    string       // base URL, no trailing slash
	breaker *resilience.Breaker

	mu      sync.Mutex
	lastErr string
}

func (b *backend) noteErr(err error) {
	b.mu.Lock()
	b.lastErr = err.Error()
	b.mu.Unlock()
}

// Router shards requests across the fleet. Construct with New, serve
// its Handler, Close when done.
type Router struct {
	// The live counters come first, which keeps them 8-byte aligned for
	// 64-bit atomics on 32-bit targets. ewmaNanos and devNanos are the
	// classify sub-request latency EWMA and mean absolute deviation
	// (nanos), the adaptive hedge trigger.
	ewmaNanos int64
	devNanos  int64
	stats     Stats

	cfg      Config
	bus      *events.Bus
	client   *http.Client
	backends map[string]*backend
	full     *Ring // every configured backend; remap detection baseline

	ringMu sync.Mutex // serializes rebuilds (membership diffing)
	live   atomic.Pointer[Ring]

	draining atomic.Bool
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New builds a router over the configured backends and starts its
// health-check loop. Every backend starts in the ring (optimistically
// healthy); the first probe round corrects that within CheckInterval.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: at least one backend is required")
	}
	rt := &Router{
		cfg: cfg,
		bus: events.NewBus(),
		// One keep-alive pooled client for every proxied request and
		// health probe.
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}},
		backends: make(map[string]*backend, len(cfg.Backends)),
		stop:     make(chan struct{}),
	}
	names := make([]string, 0, len(cfg.Backends))
	for _, raw := range cfg.Backends {
		name := strings.TrimSuffix(strings.TrimSpace(raw), "/")
		if name == "" {
			return nil, fmt.Errorf("router: empty backend in %v", cfg.Backends)
		}
		if !strings.Contains(name, "://") {
			name = "http://" + name
		}
		if _, dup := rt.backends[name]; dup {
			return nil, fmt.Errorf("router: duplicate backend %s", name)
		}
		rt.backends[name] = &backend{
			name: name,
			breaker: resilience.NewBreaker(resilience.BreakerConfig{
				Failures: cfg.BreakerFailures,
				Cooldown: cfg.BreakerCooldown,
			}),
		}
		names = append(names, name)
	}
	sort.Strings(names)
	rt.full = NewRing(names, cfg.Replicas)
	rt.live.Store(rt.full)
	rt.wg.Add(1)
	go rt.healthLoop()
	return rt, nil
}

// Close stops the health loop and releases pooled connections. It does
// not wait for in-flight proxied requests — the HTTP server draining
// above the router owns that.
func (rt *Router) Close() {
	close(rt.stop)
	rt.wg.Wait()
	rt.client.CloseIdleConnections()
}

// StartDraining flips the router's /v1/readyz to draining so the load
// balancer above ejects this instance while in-flight requests finish.
func (rt *Router) StartDraining() { rt.draining.Store(true) }

// routeKey is the shard key of one program for one model: the same
// lexically-normalized content digest family the backends cache under
// (core digests), so formatting variants of a program route — and cache
// — identically. The model is part of the key so each model's corpus
// spreads independently across the ring.
func routeKey(model, irText string) string {
	return core.DigestIRKeyed("route|"+model, irText)
}

// rebuildRing recomputes ring membership from the breakers' snapshots
// (Closed = in the ring) and swaps the live ring, publishing ejection/
// re-admission diffs. Serialized by ringMu so concurrent failure paths
// cannot interleave their diffs.
func (rt *Router) rebuildRing() {
	rt.ringMu.Lock()
	defer rt.ringMu.Unlock()
	prev := rt.live.Load()
	healthy := make([]string, 0, len(rt.backends))
	for name, b := range rt.backends {
		if b.breaker.Snapshot().State == resilience.Closed {
			healthy = append(healthy, name)
		}
	}
	sort.Strings(healthy)
	prevSet := make(map[string]struct{}, len(prev.Members()))
	for _, n := range prev.Members() {
		prevSet[n] = struct{}{}
	}
	same := len(healthy) == len(prevSet)
	for _, n := range healthy {
		if _, ok := prevSet[n]; !ok {
			same = false
		}
	}
	if same {
		return
	}
	next := NewRing(healthy, rt.cfg.Replicas)
	rt.live.Store(next)
	nextSet := make(map[string]struct{}, len(healthy))
	for _, n := range healthy {
		nextSet[n] = struct{}{}
	}
	for _, n := range prev.Members() {
		if _, ok := nextSet[n]; !ok {
			atomic.AddInt64(&rt.stats.Ejections, 1)
			rt.bus.Publish(events.RouterEjected, BackendEventData{Backend: n,
				Healthy: len(healthy), Total: len(rt.backends)})
		}
	}
	for _, n := range healthy {
		if _, ok := prevSet[n]; !ok {
			atomic.AddInt64(&rt.stats.Readmissions, 1)
			rt.bus.Publish(events.RouterReadmitted, BackendEventData{Backend: n,
				Healthy: len(healthy), Total: len(rt.backends)})
		}
	}
}

// BackendEventData accompanies events.RouterEjected / RouterReadmitted.
type BackendEventData struct {
	Backend string `json:"backend"`
	Healthy int    `json:"healthy"`
	Total   int    `json:"total"`
}

// candidates returns the ordered ring replicas for a shard key, noting
// a remap when the live primary differs from the full-ring owner (the
// backend the key would warm if the whole fleet were healthy).
func (rt *Router) candidates(key string) []string {
	live := rt.live.Load()
	owners := live.Lookup(key, 0)
	if len(owners) > 0 {
		if fullOwner, ok := rt.full.Owner(key); ok && fullOwner != owners[0] {
			atomic.AddInt64(&rt.stats.Remaps, 1)
		}
	}
	return owners
}

// proxyResult is one buffered backend response.
type proxyResult struct {
	status      int
	contentType string
	body        []byte
	backend     string
}

// errNoBackend fails a shard whose every replica is ejected or
// exhausted; handlers surface it as a structured 503.
var errNoBackend = errors.New("router: no healthy backend for shard")

// retryable reports whether a failed attempt may move to the next ring
// replica: transport-level errors and 5xx statuses, never a response
// the backend answered deliberately (4xx/2xx), and never a canceled
// caller.
func retryable(res proxyResult, err error) bool {
	if err != nil {
		return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
	}
	return res.status >= 500
}

// send proxies one buffered sub-request to one backend and feeds its
// breaker: transport errors and 5xx count as failures (enough of them
// eject the backend between health rounds), anything the backend
// answered below 500 counts as success.
func (rt *Router) send(ctx context.Context, b *backend, method, path string, body []byte) (proxyResult, error) {
	atomic.AddInt64(&rt.stats.Proxied, 1)
	atomic.AddInt64(&b.stats.Requests, 1)
	res, err := rt.sendRaw(ctx, b, method, path, body)
	noted := err
	if err == nil && res.status >= 500 {
		noted = fmt.Errorf("HTTP %d from %s", res.status, path)
	}
	rt.recordAttempt(ctx, b, noted == nil, noted)
	return res, err
}

// recordAttempt feeds one proxied attempt's outcome to b's breaker: a
// failure is counted and its error (when there is one) noted, and a
// failure that leaves the breaker not closed rebuilds the ring. An
// attempt that died because its caller walked away (or a hedge winner
// canceled it) says nothing about the backend's health: it is not
// recorded, and recordAttempt reports false.
func (rt *Router) recordAttempt(ctx context.Context, b *backend, ok bool, err error) bool {
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) && ctx.Err() != nil {
		return false
	}
	if !ok {
		atomic.AddInt64(&b.stats.Failures, 1)
		if err != nil {
			b.noteErr(err)
		}
	}
	b.breaker.Record(ok)
	if !ok && b.breaker.State() != resilience.Closed {
		rt.rebuildRing()
	}
	return true
}

func (rt *Router) sendRaw(ctx context.Context, b *backend, method, path string, body []byte) (proxyResult, error) {
	if err := fault.Inject(FaultProxy); err != nil {
		return proxyResult{}, err
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.name+path, rd)
	if err != nil {
		return proxyResult{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return proxyResult{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
	if err != nil {
		return proxyResult{}, err
	}
	return proxyResult{status: resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		body:        data, backend: b.name}, nil
}

// backoff sleeps the jittered exponential backoff before attempt n
// (n >= 1 is the first retry), honoring ctx.
func (rt *Router) backoff(ctx context.Context, n int) error {
	d := rt.cfg.RetryBackoff << (n - 1)
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// observeLatency folds one successful classify sub-request into the
// hedge trigger's EWMA + deviation band.
func (rt *Router) observeLatency(d time.Duration) {
	const alpha = 0.2
	if prev := atomic.LoadInt64(&rt.ewmaNanos); prev != 0 {
		diff := int64(d) - prev
		if diff < 0 {
			diff = -diff
		}
		telemetry.Fold(&rt.devNanos, diff, alpha)
	}
	telemetry.Fold(&rt.ewmaNanos, int64(d), alpha)
}

// hedgeDelay is how long a classify sub-request may run before a hedge
// copy races it: the configured constant, or EWMA + 3 deviations with a
// floor that keeps the router from hedging on scheduler noise. Zero
// means "do not hedge" (disabled, or no samples yet).
func (rt *Router) hedgeDelay() time.Duration {
	if rt.cfg.HedgeAfter < 0 {
		return 0
	}
	if rt.cfg.HedgeAfter > 0 {
		return rt.cfg.HedgeAfter
	}
	ewma := atomic.LoadInt64(&rt.ewmaNanos)
	if ewma == 0 {
		return 0
	}
	d := time.Duration(ewma + 3*atomic.LoadInt64(&rt.devNanos))
	if d < 2*time.Millisecond {
		d = 2 * time.Millisecond
	}
	return d
}

// doShard runs one shard of idempotent work against the key's ring
// replicas: primary first, rerouting to the next replica (with jittered
// backoff) on connect/5xx failures, hedging the tail when enabled.
// Responses below 500 — success or a deliberate 4xx envelope — return
// as-is; errNoBackend means every replica was down or exhausted.
func (rt *Router) doShard(ctx context.Context, key, method, path string, body []byte, hedge bool) (proxyResult, error) {
	cands := rt.candidates(key)
	if len(cands) == 0 {
		atomic.AddInt64(&rt.stats.NoBackend, 1)
		return proxyResult{}, errNoBackend
	}
	attempts := rt.cfg.MaxAttempts
	if attempts > len(cands) {
		attempts = len(cands)
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			atomic.AddInt64(&rt.stats.Retries, 1)
			if err := rt.backoff(ctx, i); err != nil {
				return proxyResult{}, err
			}
		}
		b := rt.backends[cands[i]]
		var next *backend
		if hedge && i+1 < len(cands) {
			next = rt.backends[cands[i+1]]
		}
		res, err := rt.attempt(ctx, b, next, method, path, body)
		if err == nil && res.status < 500 {
			return res, nil
		}
		if !retryable(res, err) {
			if err != nil {
				return proxyResult{}, err
			}
			return res, nil
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("HTTP %d from %s", res.status, res.backend)
		}
	}
	atomic.AddInt64(&rt.stats.NoBackend, 1)
	return proxyResult{}, fmt.Errorf("%w (%d attempts): %v", errNoBackend, attempts, lastErr)
}

// attempt sends to one backend, racing a hedge copy against the next
// replica when the primary overstays the hedge delay. First response
// wins; the loser's context is canceled. Hedge copies ride the same
// send path, so their outcomes feed breakers and counters identically.
func (rt *Router) attempt(ctx context.Context, b, next *backend, method, path string, body []byte) (proxyResult, error) {
	delay := time.Duration(0)
	if next != nil {
		delay = rt.hedgeDelay()
	}
	start := time.Now()
	if delay == 0 || next == nil {
		res, err := rt.send(ctx, b, method, path, body)
		if err == nil && res.status < 500 {
			rt.observeLatency(time.Since(start))
		}
		return res, err
	}

	type reply struct {
		res   proxyResult
		err   error
		hedge bool
	}
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make(chan reply, 2)
	inflight := 1
	go func() {
		res, err := rt.send(raceCtx, b, method, path, body)
		out <- reply{res, err, false}
	}()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	hedged := false
	for {
		select {
		case <-timer.C:
			if !hedged {
				hedged = true
				atomic.AddInt64(&rt.stats.HedgesLaunched, 1)
				inflight++
				go func() {
					res, err := rt.send(raceCtx, next, method, path, body)
					out <- reply{res, err, true}
				}()
			}
		case r := <-out:
			inflight--
			if r.err == nil && r.res.status < 500 {
				// Winner: cancel the loser and settle the hedge tally.
				cancel()
				if hedged {
					if r.hedge {
						atomic.AddInt64(&rt.stats.HedgesWon, 1)
					} else {
						atomic.AddInt64(&rt.stats.HedgesLost, 1)
					}
				}
				rt.observeLatency(time.Since(start))
				return r.res, r.err
			}
			if inflight > 0 {
				continue // the other copy may still answer
			}
			return r.res, r.err
		case <-ctx.Done():
			return proxyResult{}, ctx.Err()
		}
	}
}
