// Package jobs is the async job tier of the serving path: a bounded,
// worker-pooled manager for submit -> job id -> poll/stream workloads.
//
// The manager is generic over the per-item result type and knows nothing
// about HTTP or about what a job computes: a job is a RunFunc that emits
// results as they become ready. The transport layer maps Submit's
// ErrQueueFull to 429/503 + Retry-After — the queue is a fixed-capacity
// channel and a fixed worker pool runs at most cfg.Workers jobs at once,
// so accepted work is always bounded: under overload the manager sheds
// load at the front door instead of accumulating goroutines.
//
// Every job carries progress counters (total/done), retains its emitted
// results for polling, and supports cooperative cancellation (Cancel
// cancels the job's context; a queued job dies without running). Follow
// blocks until a job has results past a cursor or goes terminal, which
// is exactly the loop an SSE streamer needs: replay, then tail.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mpidetect/internal/fault"
	"mpidetect/internal/telemetry"
)

// Sentinel errors mapped to backpressure statuses by the transport.
var (
	// ErrQueueFull: the bounded queue is at capacity; retry later.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed: the manager is shutting down and accepts no work.
	ErrClosed = errors.New("jobs: manager closed")
)

// FaultWorker is the job-runner fault point: an armed panic here
// exercises the worker's panic isolation (the job fails, the pool
// survives).
var FaultWorker = fault.Register("jobs.worker")

// State is a job's lifecycle phase.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateCompleted, StateFailed, StateCanceled:
		return true
	}
	return false
}

// Config sizes a manager; zero values take the documented defaults.
type Config struct {
	// Workers is the number of jobs running concurrently (default 2).
	Workers int
	// QueueDepth bounds the jobs accepted but not yet running (default
	// 16). A Submit past this depth fails with ErrQueueFull.
	QueueDepth int
	// MaxRetained caps how many finished jobs stay pollable; the oldest
	// are evicted first (default 256).
	MaxRetained int
	// Timeout bounds one job's run; 0 = no per-job budget.
	Timeout time.Duration
	// OnTransition, when set, is invoked (outside all manager locks) on
	// every state change with the job's fresh snapshot. The serving
	// engine publishes these to its event bus. A job's worker starts only
	// after the StateQueued call returns, so the hook must not wait for
	// the job to run.
	OnTransition func(Snapshot)
	// OnPanic, when set, is invoked after a job's RunFunc panic is
	// recovered (the job fails; the worker survives). The serving engine
	// publishes a fault.recovered event from it.
	OnPanic func(id string, v any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxRetained <= 0 {
		c.MaxRetained = 256
	}
	return c
}

// Snapshot is a point-in-time view of one job, shaped for JSON.
type Snapshot struct {
	ID       string    `json:"id"`
	State    State     `json:"state"`
	Total    int       `json:"total"`
	Done     int       `json:"done"`
	Error    string    `json:"error,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
}

// Stats is the manager half of GET /v1/stats.
type Stats struct {
	Submitted     int64 `json:"submitted"`
	Queued        int64 `json:"queued"`
	Running       int64 `json:"running"`
	Completed     int64 `json:"completed"`
	Failed        int64 `json:"failed"`
	Canceled      int64 `json:"canceled"`
	Panics        int64 `json:"panics"`
	QueueDepth    int64 `json:"queue_depth"`
	QueueCapacity int64 `json:"queue_capacity"`
	Watchers      int64 `json:"watchers"`
	Workers       int   `json:"workers"`
	Retained      int   `json:"retained"`
}

// RunFunc computes one job, emitting per-item results as they are ready.
// It must return promptly once ctx is done; a non-nil return marks the
// job failed unless the job was canceled.
type RunFunc[R any] func(ctx context.Context, emit func(R)) error

type job[R any] struct {
	id     string
	total  int
	run    RunFunc[R]
	ctx    context.Context
	cancel context.CancelFunc

	mu          sync.Mutex
	state       State
	canceledReq bool // Cancel was requested (distinguishes canceled from failed)
	results     []R
	errMsg      string
	created     time.Time
	started     time.Time
	finished    time.Time
	changed     chan struct{} // closed and replaced on every mutation (broadcast)
	announced   chan struct{} // closed once Submit has reported StateQueued
}

// bumpLocked wakes every Follow parked on the job. Caller holds j.mu.
func (j *job[R]) bumpLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

func (j *job[R]) snapshotLocked() Snapshot {
	return Snapshot{
		ID: j.id, State: j.state, Total: j.total, Done: len(j.results),
		Error: j.errMsg, Created: j.created, Started: j.started, Finished: j.finished,
	}
}

// Manager runs jobs on a fixed worker pool behind a bounded queue. The
// zero value is not usable; construct with New.
type Manager[R any] struct {
	// The live counters come first, which keeps them 8-byte aligned for
	// 64-bit atomics on 32-bit targets. avgRunNanos is an EWMA of
	// finished-job wall time, feeding DrainEstimate (the dynamic
	// Retry-After).
	avgRunNanos int64
	stats       Stats

	cfg   Config
	queue chan *job[R]
	wg    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job[R]
	terminal []string // retirement order for MaxRetained eviction
	seq      int64
	closed   bool
}

// New builds a manager and starts its worker pool.
func New[R any](cfg Config) *Manager[R] {
	m := &Manager[R]{cfg: cfg.withDefaults(), jobs: map[string]*job[R]{}}
	m.queue = make(chan *job[R], m.cfg.QueueDepth)
	for w := 0; w < m.cfg.Workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// transition invokes the OnTransition hook outside every lock.
func (m *Manager[R]) transition(s Snapshot) {
	if m.cfg.OnTransition != nil {
		m.cfg.OnTransition(s)
	}
}

// Submit queues a job. total is the expected number of emitted results
// (progress denominator; 0 if unknown). Fails fast with ErrQueueFull
// when the bounded queue is at capacity — the backpressure contract —
// and ErrClosed during shutdown.
func (m *Manager[R]) Submit(total int, run RunFunc[R]) (Snapshot, error) {
	ctx, cancel := context.WithCancel(context.Background())
	j := &job[R]{
		total: total, run: run, ctx: ctx, cancel: cancel,
		state: StateQueued, created: time.Now(), changed: make(chan struct{}),
		announced: make(chan struct{}),
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel()
		return Snapshot{}, ErrClosed
	}
	// The id is set before the send: a worker may read it at once.
	j.id = fmt.Sprintf("job-%d", m.seq+1)
	select {
	case m.queue <- j:
	default:
		m.mu.Unlock()
		cancel()
		return Snapshot{}, fmt.Errorf("%w: %d jobs pending", ErrQueueFull, m.cfg.QueueDepth)
	}
	m.seq++
	m.jobs[j.id] = j
	m.mu.Unlock()
	atomic.AddInt64(&m.stats.Submitted, 1)
	atomic.AddInt64(&m.stats.Queued, 1)
	snap := Snapshot{ID: j.id, State: StateQueued, Total: total, Created: j.created}
	m.transition(snap)
	close(j.announced)
	return snap, nil
}

func (m *Manager[R]) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

func (m *Manager[R]) runJob(j *job[R]) {
	// OnTransition sees StateQueued before StateRunning.
	<-j.announced
	j.mu.Lock()
	if j.state != StateQueued { // canceled while queued; already terminal
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	atomic.AddInt64(&m.stats.Queued, -1)
	atomic.AddInt64(&m.stats.Running, 1)
	j.bumpLocked()
	snap := j.snapshotLocked()
	j.mu.Unlock()
	m.transition(snap)

	ctx := j.ctx
	if m.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.cfg.Timeout)
		defer cancel()
	}
	err := m.runIsolated(ctx, j)
	telemetry.Fold(&m.avgRunNanos, int64(time.Since(j.started)), 0.3)

	j.mu.Lock()
	atomic.AddInt64(&m.stats.Running, -1)
	switch {
	case j.canceledReq:
		j.state = StateCanceled
		atomic.AddInt64(&m.stats.Canceled, 1)
	case err != nil:
		j.state = StateFailed
		j.errMsg = err.Error()
		atomic.AddInt64(&m.stats.Failed, 1)
	default:
		j.state = StateCompleted
		atomic.AddInt64(&m.stats.Completed, 1)
	}
	j.finished = time.Now()
	j.bumpLocked()
	snap = j.snapshotLocked()
	j.mu.Unlock()
	m.transition(snap)
	m.retire(j.id)
}

// runIsolated runs one job's RunFunc with panic isolation: a panicking
// job (or an armed jobs.worker fault) fails that job with a structured
// error instead of killing the worker and, with it, the whole pool.
func (m *Manager[R]) runIsolated(ctx context.Context, j *job[R]) (err error) {
	defer func() {
		if r := recover(); r != nil {
			atomic.AddInt64(&m.stats.Panics, 1)
			err = fmt.Errorf("jobs: worker panic: %v", r)
			if m.cfg.OnPanic != nil {
				m.cfg.OnPanic(j.id, r)
			}
		}
	}()
	if err := fault.Inject(FaultWorker); err != nil {
		return err
	}
	return j.run(ctx, func(r R) {
		j.mu.Lock()
		j.results = append(j.results, r)
		j.bumpLocked()
		j.mu.Unlock()
	})
}

// DrainEstimate predicts how long a newly rejected submission should
// wait before retrying: the observed average job duration times the
// backlog ahead of it, spread across the worker pool. Clamped to
// [1s, 5m]; with no observed completions yet it answers the floor.
func (m *Manager[R]) DrainEstimate() time.Duration {
	const floor, ceil = time.Second, 5 * time.Minute
	avg := time.Duration(atomic.LoadInt64(&m.avgRunNanos))
	if avg <= 0 {
		return floor
	}
	backlog := atomic.LoadInt64(&m.stats.Queued) + atomic.LoadInt64(&m.stats.Running)
	est := avg * time.Duration(backlog) / time.Duration(m.cfg.Workers)
	if est < floor {
		return floor
	}
	if est > ceil {
		return ceil
	}
	return est
}

// retire records a terminal job and evicts the oldest finished jobs past
// cfg.MaxRetained, bounding the manager's memory.
func (m *Manager[R]) retire(id string) {
	m.mu.Lock()
	m.terminal = append(m.terminal, id)
	for len(m.terminal) > m.cfg.MaxRetained {
		old := m.terminal[0]
		m.terminal = m.terminal[1:]
		delete(m.jobs, old)
	}
	m.mu.Unlock()
}

func (m *Manager[R]) get(id string) *job[R] {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// Get snapshots a job by id.
func (m *Manager[R]) Get(id string) (Snapshot, bool) {
	j := m.get(id)
	if j == nil {
		return Snapshot{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked(), true
}

// Results returns a copy of the results emitted so far plus the job's
// snapshot.
func (m *Manager[R]) Results(id string) ([]R, Snapshot, bool) {
	j := m.get(id)
	if j == nil {
		return nil, Snapshot{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]R, len(j.results))
	copy(out, j.results)
	return out, j.snapshotLocked(), true
}

// Cancel requests cooperative cancellation: a queued job goes terminal
// immediately and never runs; a running job's context is canceled and
// the job reports canceled once its RunFunc returns. Returns the
// post-cancel snapshot; ok is false for unknown ids.
func (m *Manager[R]) Cancel(id string) (Snapshot, bool) {
	j := m.get(id)
	if j == nil {
		return Snapshot{}, false
	}
	j.mu.Lock()
	if j.state.Terminal() {
		snap := j.snapshotLocked()
		j.mu.Unlock()
		return snap, true
	}
	j.canceledReq = true
	j.cancel()
	if j.state == StateQueued {
		j.state = StateCanceled
		j.finished = time.Now()
		atomic.AddInt64(&m.stats.Queued, -1)
		atomic.AddInt64(&m.stats.Canceled, 1)
		j.bumpLocked()
		snap := j.snapshotLocked()
		j.mu.Unlock()
		m.transition(snap)
		m.retire(id)
		return snap, true
	}
	snap := j.snapshotLocked() // running: terminal transition lands in runJob
	j.mu.Unlock()
	return snap, true
}

// Follow blocks until the job has results beyond cursor or is terminal,
// then returns the new results (may be empty on a terminal job) and a
// fresh snapshot. ok is false for unknown ids or an expired ctx. An SSE
// streamer loops: replay what Follow returns, advance the cursor, stop
// after a terminal snapshot with no residue.
func (m *Manager[R]) Follow(ctx context.Context, id string, cursor int) ([]R, Snapshot, bool) {
	j := m.get(id)
	if j == nil {
		return nil, Snapshot{}, false
	}
	atomic.AddInt64(&m.stats.Watchers, 1)
	defer atomic.AddInt64(&m.stats.Watchers, -1)
	for {
		j.mu.Lock()
		if len(j.results) > cursor || j.state.Terminal() {
			var out []R
			if cursor < len(j.results) {
				out = make([]R, len(j.results)-cursor)
				copy(out, j.results[cursor:])
			}
			snap := j.snapshotLocked()
			j.mu.Unlock()
			return out, snap, true
		}
		ch := j.changed
		j.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, Snapshot{}, false
		}
	}
}

// Stats snapshots the manager counters.
func (m *Manager[R]) Stats() Stats {
	m.mu.Lock()
	retained := len(m.jobs)
	m.mu.Unlock()
	s := telemetry.Snapshot(&m.stats)
	s.QueueDepth = int64(len(m.queue))
	s.QueueCapacity = int64(m.cfg.QueueDepth)
	s.Workers = m.cfg.Workers
	s.Retained = retained
	return s
}

// Close rejects new submissions, cancels every live job, and waits for
// the workers to drain. Idempotent.
func (m *Manager[R]) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	ids := make([]string, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	close(m.queue)
	m.mu.Unlock()
	for _, id := range ids {
		m.Cancel(id)
	}
	m.wg.Wait()
}
