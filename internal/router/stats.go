// Router observability: the live counter snapshot (the "router" section
// of GET /v1/stats) and the fan-in aggregation that merges every
// backend's own /v1/stats into one fleet view.
package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"mpidetect/internal/resilience"
	"mpidetect/internal/telemetry"
)

// BackendStats is one backend's row in the router stats section.
type BackendStats struct {
	Name          string `json:"name"`
	State         string `json:"state"`    // breaker state
	Requests      int64  `json:"requests"` // proxied sub-requests sent
	Failures      int64  `json:"failures"` // transport errors + 5xx
	Probes        int64  `json:"probes"`
	ProbeFailures int64  `json:"probe_failures"`
	Trips         int64  `json:"trips"`
	Healthy       bool   `json:"healthy"` // in the ring now; after the int64s, for 32-bit alignment
	LastError     string `json:"last_error,omitempty"`
}

// Stats is the router section of GET /v1/stats.
type Stats struct {
	Backends        []BackendStats `json:"backends"`
	HealthyBackends int            `json:"healthy_backends"`
	Requests        int64          `json:"requests"` // router-level API requests
	Proxied         int64          `json:"proxied"`  // sub-requests sent to backends
	Retries         int64          `json:"retries"`  // attempts beyond the first
	Remaps          int64          `json:"remaps"`   // keys served off their full-ring owner
	Ejections       int64          `json:"ejections"`
	Readmissions    int64          `json:"readmissions"`
	HedgesLaunched  int64          `json:"hedges_launched"`
	HedgesWon       int64          `json:"hedges_won"` // hedge answered before the primary
	HedgesLost      int64          `json:"hedges_lost"`
	NoBackend       int64          `json:"no_backend"`     // shards failed with every replica down
	HedgeDelayNanos int64          `json:"hedge_delay_ns"` // current effective trigger
	Draining        bool           `json:"draining"`
}

// Stats snapshots the router counters.
func (rt *Router) Stats() Stats {
	live := rt.live.Load()
	inRing := make(map[string]struct{}, len(live.Members()))
	for _, n := range live.Members() {
		inRing[n] = struct{}{}
	}
	s := telemetry.Snapshot(&rt.stats)
	s.HealthyBackends = len(live.Members())
	s.HedgeDelayNanos = int64(rt.hedgeDelay())
	s.Draining = rt.draining.Load()
	for name, b := range rt.backends {
		bs := telemetry.Snapshot(&b.stats)
		_, bs.Healthy = inRing[name]
		br := b.breaker.Stats()
		bs.Name, bs.State, bs.Trips = name, br.State, br.Trips
		b.mu.Lock()
		bs.LastError = b.lastErr
		b.mu.Unlock()
		s.Backends = append(s.Backends, bs)
	}
	sort.Slice(s.Backends, func(i, j int) bool { return s.Backends[i].Name < s.Backends[j].Name })
	return s
}

// Ready builds the router's own GET /v1/readyz report: ok with the full
// fleet, degraded while any backend is ejected (the router still
// answers, remapping the missing slice), and draining once
// StartDraining ran.
func (rt *Router) Ready() resilience.Report {
	h := resilience.NewHealth()
	healthy := len(rt.live.Load().Members())
	total := len(rt.backends)
	switch {
	case healthy == 0:
		h.Set("ring", resilience.StatusDegraded, "no healthy backends")
	case healthy < total:
		h.Set("ring", resilience.StatusDegraded, ringDetail(healthy, total))
	default:
		h.Set("ring", resilience.StatusOK, ringDetail(healthy, total))
	}
	return h.Report(rt.draining.Load())
}

func ringDetail(healthy, total int) string {
	return fmt.Sprintf("%d/%d backends in ring", healthy, total)
}

// aggregateStats is the fleet-wide rollup of the backend counters that
// matter for capacity questions: how much work the fleet did and how
// well the sharded caches are holding it.
type aggregateStats struct {
	Backends      int   `json:"backends"`
	Reachable     int   `json:"reachable"`
	Requests      int64 `json:"requests"`
	Programs      int64 `json:"programs"`
	PipelineExecs int64 `json:"pipeline_execs"`
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	CacheSize     int64 `json:"cache_size"`
	CacheCapacity int64 `json:"cache_capacity"`
	SimExecs      int64 `json:"sim_execs"`
}

// backendStatsSubset is the slice of a backend's /v1/stats the
// aggregation reads; everything else passes through raw.
type backendStatsSubset struct {
	Engine struct {
		Requests      int64 `json:"requests"`
		Programs      int64 `json:"programs"`
		PipelineExecs int64 `json:"pipeline_execs"`
	} `json:"engine"`
	Cache *struct {
		Hits     int64 `json:"hits"`
		Misses   int64 `json:"misses"`
		Size     int64 `json:"size"`
		Capacity int64 `json:"capacity"`
	} `json:"cache"`
	Analyze *struct {
		SimExecs int64 `json:"sim_execs"`
	} `json:"analyze"`
}

// fanInStats queries every configured backend's /v1/stats concurrently
// (ejected ones included — an ejected backend may still answer stats)
// and returns the merged body: the router section, the aggregate
// rollup, and each backend's raw stats (or its error).
func (rt *Router) fanInStats(ctx context.Context) map[string]any {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.CheckTimeout)
	defer cancel()
	type fetched struct {
		name string
		raw  json.RawMessage
		err  error
	}
	out := make(chan fetched, len(rt.backends))
	var wg sync.WaitGroup
	for name, b := range rt.backends {
		wg.Add(1)
		go func(name string, b *backend) {
			defer wg.Done()
			raw, err := rt.fetchStats(ctx, b)
			out <- fetched{name, raw, err}
		}(name, b)
	}
	wg.Wait()
	close(out)

	agg := aggregateStats{Backends: len(rt.backends)}
	perBackend := map[string]any{}
	for f := range out {
		if f.err != nil {
			perBackend[f.name] = map[string]string{"error": f.err.Error()}
			continue
		}
		perBackend[f.name] = f.raw
		agg.Reachable++
		var sub backendStatsSubset
		if err := json.Unmarshal(f.raw, &sub); err != nil {
			continue
		}
		agg.Requests += sub.Engine.Requests
		agg.Programs += sub.Engine.Programs
		agg.PipelineExecs += sub.Engine.PipelineExecs
		if sub.Cache != nil {
			agg.CacheHits += sub.Cache.Hits
			agg.CacheMisses += sub.Cache.Misses
			agg.CacheSize += sub.Cache.Size
			agg.CacheCapacity += sub.Cache.Capacity
		}
		if sub.Analyze != nil {
			agg.SimExecs += sub.Analyze.SimExecs
		}
	}
	return map[string]any{
		"router":    rt.Stats(),
		"aggregate": agg,
		"backends":  perBackend,
	}
}

// fetchStats pulls one backend's raw stats body. It deliberately does
// NOT ride send(): an observability read must not feed the breaker or
// the proxy counters.
func (rt *Router) fetchStats(ctx context.Context, b *backend) (json.RawMessage, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.name+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{resp.StatusCode}
	}
	dec := json.NewDecoder(resp.Body)
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return nil, err
	}
	return raw, nil
}

type statusError struct{ code int }

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d", e.code) }
