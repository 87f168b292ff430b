// The engine's resilience tier: per-tool circuit breakers, deadline-
// aware admission control, panic accounting, and the health report
// behind GET /v1/readyz.
//
// Breakers are per dynamic/static tool, lazily created on first use.
// Enough consecutive internal failures (panics, injected faults,
// simulator crashes — not program-dependent verdicts like "flagged" or
// deterministic timeouts) trip a tool's breaker; while it is open the
// tool drops out of the /v1/analyze ensemble with a "degraded" verdict
// instead of stalling every request on a known-bad dependency, and one
// probe per cooldown detects recovery. Store health rides the tier
// breakers in internal/store; this file only reports them.
//
// Admission control sheds classify work that cannot make its deadline:
// when the worker queue's observed drain rate says a request would
// expire while parked in the queue, the engine fails it immediately
// with ErrOverloaded (503 + Retry-After at the transport) instead of
// burning a worker slot on a verdict nobody will read.
package serve

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"mpidetect/internal/events"
	"mpidetect/internal/fault"
	"mpidetect/internal/jobs"
	"mpidetect/internal/resilience"
)

// FaultSimRun is the simulation fault point, hit once per run: armed
// faults surface as internal tool errors on every dynamic tool of the
// request, the way a wedged or crashing simulator binary would.
var FaultSimRun = fault.Register("sim.run")

// ErrOverloaded rejects work whose queue wait would outlive its
// deadline; the transport maps it to 503 + Retry-After.
var ErrOverloaded = errors.New("serve: overloaded")

// OverloadedError carries the shed request's predicted queue wait, the
// transport's Retry-After hint.
type OverloadedError struct{ Wait time.Duration }

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("serve: overloaded: predicted queue wait %v exceeds request budget", e.Wait)
}
func (e *OverloadedError) Unwrap() error { return ErrOverloaded }

// QueueFullError is ErrJobQueueFull plus the job tier's observed drain
// estimate, so 429 responses carry a Retry-After derived from how fast
// the queue actually moves instead of a constant.
type QueueFullError struct {
	RetryAfter time.Duration
	msg        string
}

func (e *QueueFullError) Error() string { return e.msg }
func (e *QueueFullError) Unwrap() error { return ErrJobQueueFull }

// errBreakerOpen completes a tool flight that was refused by an open
// breaker: broadcast (every coalesced waiter degrades too) but never
// cached, so a recovered tool serves real verdicts immediately.
var errBreakerOpen = errors.New("serve: tool circuit breaker open")

// errToolInternal completes a tool flight whose verdict is an internal
// failure (panic, injected fault): broadcast but never cached, so a
// disarmed fault or fixed tool stops surfacing stale errors at once.
var errToolInternal = errors.New("serve: tool internal error")

// FaultRecoveredData accompanies events.FaultRecovered.
type FaultRecoveredData struct {
	Subsystem string `json:"subsystem"` // "classify", "tool", "jobs", "batch"
	Detail    string `json:"detail,omitempty"`
	Panic     string `json:"panic,omitempty"`
}

// BreakerUpdatedData accompanies events.BreakerUpdated.
type BreakerUpdatedData struct {
	Scope string `json:"scope"` // "tool" or "store"
	Name  string `json:"name"`  // tool name, or tier namespace
	From  string `json:"from,omitempty"`
	To    string `json:"to"` // breaker state, or tier mode
}

// toolBreaker lazily resolves the breaker guarding one tool. Breakers
// survive tool re-registration deliberately: a replaced implementation
// under the same name inherits the name's health until it proves itself
// through a probe.
func (e *Engine) toolBreaker(name string) *resilience.Breaker {
	e.breakerMu.Lock()
	defer e.breakerMu.Unlock()
	if b, ok := e.breakers[name]; ok {
		return b
	}
	b := resilience.NewBreaker(resilience.BreakerConfig{
		Failures: e.cfg.BreakerFailures,
		Cooldown: e.cfg.BreakerCooldown,
		OnChange: func(from, to resilience.BreakerState) {
			e.bus.Publish(events.BreakerUpdated, BreakerUpdatedData{
				Scope: "tool", Name: name, From: from.String(), To: to.String()})
		},
	})
	e.breakers[name] = b
	return b
}

// recordToolOutcome feeds one executed tool verdict to its breaker.
// Only internal failures count against the tool: flagged/clean/timeout
// verdicts are properties of the analyzed program, and a cancellation
// is the caller's deadline, conclusive about neither (Skip releases a
// half-open probe slot without judging it).
func recordToolOutcome(b *resilience.Breaker, v ToolVerdict) {
	if v.Verdict == "canceled" {
		b.Skip()
		return
	}
	b.Record(!v.Internal)
}

// degradedToolVerdict is the ensemble placeholder for a tool sat out by
// its open breaker: a non-voter, marked so callers can see the ensemble
// ran thin.
func degradedToolVerdict(st selectedTool) ToolVerdict {
	return ToolVerdict{Tool: st.name, Dynamic: st.dynamic,
		Verdict: "degraded", Reason: "circuit breaker open"}
}

// admit decides whether a classify request can still make its deadline:
// with the worker queue backed up, the predicted wait (observed average
// pipeline time × queue depth ÷ workers) is checked against the
// caller's remaining budget, and a request that would expire in the
// queue is shed now, while the rejection is still cheap.
func (e *Engine) admit(deadline time.Time, ok bool) error {
	qlen := len(e.jobs)
	if !ok || qlen == 0 {
		return nil
	}
	avg := time.Duration(atomic.LoadInt64(&e.stats.avgExecNanos))
	if avg <= 0 {
		return nil
	}
	wait := avg * time.Duration(qlen) / time.Duration(e.cfg.Workers)
	if wait <= time.Until(deadline) {
		return nil
	}
	atomic.AddInt64(&e.stats.resilience.ShedRequests, 1)
	return &OverloadedError{Wait: wait}
}

// StartDraining flips the engine into draining mode: readyz answers
// draining (503) so load balancers eject this instance while in-flight
// work completes. The daemon calls it at the top of graceful shutdown.
func (e *Engine) StartDraining() {
	if !e.draining.Swap(true) {
		e.bus.Publish(events.BreakerUpdated, BreakerUpdatedData{
			Scope: "engine", Name: "serve", To: "draining"})
	}
}

// BreakerSnapshot is one tool breaker's state in the stats resilience
// section.
type BreakerSnapshot struct {
	Tool string `json:"tool"`
	resilience.BreakerStats
}

// breakerSnapshots lists every instantiated tool breaker, sorted.
func (e *Engine) breakerSnapshots() []BreakerSnapshot {
	e.breakerMu.Lock()
	out := make([]BreakerSnapshot, 0, len(e.breakers))
	for name, b := range e.breakers {
		out = append(out, BreakerSnapshot{Tool: name, BreakerStats: b.Stats()})
	}
	e.breakerMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tool < out[j].Tool })
	return out
}

// openBreakerNames lists the tools whose breakers are not closed.
func (e *Engine) openBreakerNames() []string {
	e.breakerMu.Lock()
	var out []string
	for name, b := range e.breakers {
		if b.State() != resilience.Closed {
			out = append(out, name)
		}
	}
	e.breakerMu.Unlock()
	sort.Strings(out)
	return out
}

// ResilienceStats is the resilience section of GET /v1/stats.
type ResilienceStats struct {
	ClassifyPanics   int64             `json:"classify_panics"`
	ToolPanics       int64             `json:"tool_panics"`
	BatchPanics      int64             `json:"batch_panics"`
	JobPanics        int64             `json:"job_panics"`
	StorePanics      int64             `json:"store_panics"`
	ShedRequests     int64             `json:"shed_requests"`
	DegradedVerdicts int64             `json:"degraded_verdicts"`
	StoreMode        string            `json:"store_mode,omitempty"`
	Draining         bool              `json:"draining"`
	Breakers         []BreakerSnapshot `json:"breakers,omitempty"`
}

// resilienceStats completes the stats section around its live counters.
// The job and store panic counts come from the jobs and store sections'
// snapshots (ss is nil without a store).
func (e *Engine) resilienceStats(rs ResilienceStats, js *jobs.Stats, ss *StoreStats) *ResilienceStats {
	rs.JobPanics = js.Panics
	rs.Draining = e.draining.Load()
	rs.Breakers = e.breakerSnapshots()
	if ss != nil {
		rs.StoreMode = e.storeMode()
		rs.StorePanics = ss.Classify.Panics
		if ss.Tool != nil {
			rs.StorePanics += ss.Tool.Panics
		}
	}
	return &rs
}

// storeMode is the worst degraded mode across the engine's tiers.
func (e *Engine) storeMode() string {
	mode := e.classifyTier.Mode()
	if e.toolTier != nil {
		if m := e.toolTier.Mode(); rankMode(m) > rankMode(mode) {
			mode = m
		}
	}
	return mode
}

func rankMode(m string) int {
	switch m {
	case "disabled":
		return 2
	case "read-only":
		return 1
	default:
		return 0
	}
}

// Ready builds the GET /v1/readyz report from live state: the worker
// queue, the durable tier's degraded mode, tool breakers, and the job
// queue, with draining overriding everything. Degraded is still
// routable — the engine answers every request, some with reduced
// capability — so the transport maps ok and degraded to 200 and only
// draining to 503.
func (e *Engine) Ready() resilience.Report {
	h := resilience.NewHealth()
	h.Set("engine", resilience.StatusOK,
		fmt.Sprintf("%d workers, %d/%d queued", e.cfg.Workers, len(e.jobs), cap(e.jobs)))
	if e.classifyTier != nil {
		st, detail := resilience.StatusOK, "durable tier ok"
		if mode := e.storeMode(); mode != "ok" {
			st, detail = resilience.StatusDegraded, "durable tier "+mode+"; memory cache serving"
		}
		h.Set("store", st, detail)
	}
	if e.tools != nil {
		if open := e.openBreakerNames(); len(open) > 0 {
			h.Set("tools", resilience.StatusDegraded,
				"breaker open: "+strings.Join(open, ", "))
		} else {
			h.Set("tools", resilience.StatusOK, fmt.Sprintf("%d tools", len(e.tools.Names())))
		}
	}
	js := e.jobMgr.Stats()
	if js.QueueDepth >= js.QueueCapacity {
		h.Set("jobs", resilience.StatusDegraded,
			fmt.Sprintf("queue full (%d/%d)", js.QueueDepth, js.QueueCapacity))
	} else {
		h.Set("jobs", resilience.StatusOK,
			fmt.Sprintf("queue %d/%d", js.QueueDepth, js.QueueCapacity))
	}
	return h.Report(e.draining.Load())
}
