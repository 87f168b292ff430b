// The streaming batch tier and the async job tier of the engine.
//
// AnalyzeBatch analyzes many programs and delivers each program's full
// hybrid verdict as soon as it is ready, on a channel — the engine-level
// form of POST /v1/analyze/batch's NDJSON stream. Each program gets the
// same per-program budget as a synchronous Analyze and rides the same
// caches, coalescing, pool and simulation slots, so a warm batch is pure cache hits and a
// cold one interleaves fairly with concurrent requests. Concurrency per
// batch is bounded (Config.BatchParallel) and every send is guarded by
// the caller's context: a caller that walks away (client disconnect)
// cancels the remaining per-program work and strands no goroutines.
//
// SubmitJob runs the same batch through the bounded async job manager
// (internal/jobs): submit returns a job id immediately, results
// accumulate server-side for polling (Job/JobResults), FollowJob tails
// them for SSE, and CancelJob aborts cooperatively. A full queue is
// ErrJobQueueFull — backpressure, not unbounded acceptance.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mpidetect/internal/events"
	"mpidetect/internal/jobs"
)

// ErrJobQueueFull is backpressure from the async job tier, mapped to
// 429 + Retry-After by the transport.
var ErrJobQueueFull = errors.New("serve: job queue full")

// BatchRequest is a batch-analysis request: one model and tool/rank
// configuration applied to every program.
type BatchRequest struct {
	Model    string    `json:"model"`
	Tools    []string  `json:"tools,omitempty"`
	Ranks    int       `json:"ranks,omitempty"`
	Programs []Program `json:"programs"`
}

// VerdictEvent is one program's completed analysis within a batch,
// delivered in completion order (Index maps it back to the request).
// Err is per-program: one failed program poisons neither the batch nor
// the stream.
type VerdictEvent struct {
	Index    int           `json:"index"`
	Name     string        `json:"name,omitempty"`
	ML       Result        `json:"ml"`
	Tools    []ToolVerdict `json:"tools,omitempty"`
	Ensemble Ensemble      `json:"ensemble"`
	Err      string        `json:"error,omitempty"`
}

// Event payloads published on the engine bus.
type (
	// VerdictCompletedData accompanies events.VerdictCompleted.
	VerdictCompletedData struct {
		Model     string `json:"model"`
		Name      string `json:"name,omitempty"`
		Incorrect bool   `json:"incorrect"`
		Flags     int    `json:"flags"`
		Voters    int    `json:"voters"`
	}
	// CacheInvalidatedData accompanies events.CacheInvalidated.
	CacheInvalidatedData struct {
		Scope   string `json:"scope"` // "model" or "tool"
		Name    string `json:"name"`
		Entries int    `json:"entries"`
	}
	// ModelReloadedData accompanies events.ModelReloaded.
	ModelReloadedData struct {
		Model string `json:"model"`
	}
)

// validateBatch resolves and bounds a batch request. max distinguishes
// the streaming cap (MaxStreamBatch) from the job cap (same).
func (e *Engine) validateBatch(req BatchRequest) ([]selectedTool, int, error) {
	if e.tools == nil {
		return nil, 0, ErrAnalysisDisabled
	}
	if len(req.Programs) == 0 {
		return nil, 0, ErrEmptyBatch
	}
	if len(req.Programs) > e.cfg.MaxStreamBatch {
		return nil, 0, fmt.Errorf("%w: %d programs (max %d)",
			ErrBatchTooLarge, len(req.Programs), e.cfg.MaxStreamBatch)
	}
	if _, ok := e.reg.Get(req.Model); !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrUnknownModel, req.Model)
	}
	selected, err := e.resolveTools(req.Tools)
	if err != nil {
		return nil, 0, err
	}
	return selected, clampRanks(req.Ranks), nil
}

// AnalyzeBatch analyzes every program of the batch and streams one
// VerdictEvent per program, in completion order, on the returned
// channel; the channel closes when the batch is done or ctx dies.
// Validation errors surface synchronously; per-program failures ride
// the stream in VerdictEvent.Err.
//
// Unlike the synchronous paths, the request-level budget is the
// caller's: each program gets the engine's full per-program timeout,
// so a long batch is not squeezed through one 30s window. Cancelling
// ctx cancels the remaining programs and releases every worker.
func (e *Engine) AnalyzeBatch(ctx context.Context, req BatchRequest) (<-chan VerdictEvent, error) {
	selected, ranks, err := e.validateBatch(req)
	if err != nil {
		return nil, err
	}
	out := make(chan VerdictEvent, len(req.Programs))
	go e.runBatch(ctx, req, selected, ranks, out, func(ev VerdictEvent) bool {
		select {
		case out <- ev:
			return true
		case <-ctx.Done():
			return false
		}
	})
	return out, nil
}

// runBatch counts the batch, fans it out with bounded parallelism,
// emitting each verdict through emit (which must honor ctx) and closing
// out at the end. It is shared by the streaming and job paths.
func (e *Engine) runBatch(ctx context.Context, req BatchRequest, selected []selectedTool, ranks int, out chan<- VerdictEvent, emit func(VerdictEvent) bool) {
	defer func() {
		if out != nil {
			close(out)
		}
	}()
	atomic.AddInt64(&e.stats.analyze.BatchRequests, 1)
	atomic.AddInt64(&e.stats.analyze.BatchPrograms, int64(len(req.Programs)))
	atomic.AddInt64(&e.stats.analyze.Requests, int64(len(req.Programs)))
	sem := make(chan struct{}, e.cfg.BatchParallel)
	var wg sync.WaitGroup
	for i, p := range req.Programs {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			wg.Wait()
			return
		}
		wg.Add(1)
		go func(i int, p Program) {
			defer wg.Done()
			defer func() { <-sem }()
			ev := VerdictEvent{Index: i, Name: p.Name}
			// Panic isolation per program: one panicking analysis becomes
			// that program's structured error, not a dead batch (and, since
			// this goroutine is unsupervised, not a dead process).
			func() {
				defer func() {
					if r := recover(); r != nil {
						atomic.AddInt64(&e.stats.resilience.BatchPanics, 1)
						ev.Err = fmt.Sprintf("internal: batch panic: %v", r)
						e.bus.Publish(events.FaultRecovered, FaultRecoveredData{
							Subsystem: "batch", Detail: p.Name, Panic: fmt.Sprint(r)})
					}
				}()
				resp, err := e.analyzeProgram(ctx, req.Model, selected, ranks, p)
				if err != nil {
					ev.Err = err.Error()
				} else {
					ev.ML, ev.Tools, ev.Ensemble = resp.ML, resp.Tools, resp.Ensemble
				}
			}()
			emit(ev)
		}(i, p)
	}
	wg.Wait()
}

// SubmitJob queues the batch on the async job tier and returns the job's
// initial snapshot (its ID is the handle for Job/JobResults/FollowJob/
// CancelJob). Validation runs up front — a malformed request fails at
// submit, not inside the job — and a full queue is ErrJobQueueFull.
func (e *Engine) SubmitJob(req BatchRequest) (jobs.Snapshot, error) {
	selected, ranks, err := e.validateBatch(req)
	if err != nil {
		return jobs.Snapshot{}, err
	}
	snap, err := e.jobMgr.Submit(len(req.Programs), func(ctx context.Context, emitR func(VerdictEvent)) error {
		e.runBatch(ctx, req, selected, ranks, nil, func(ev VerdictEvent) bool {
			emitR(ev)
			return true
		})
		return ctx.Err()
	})
	if errors.Is(err, jobs.ErrQueueFull) {
		// Attach the job tier's observed drain estimate so the transport's
		// Retry-After reflects how fast the queue actually moves.
		return jobs.Snapshot{}, &QueueFullError{
			RetryAfter: e.jobMgr.DrainEstimate(),
			msg:        fmt.Sprintf("%v: %v", ErrJobQueueFull, err),
		}
	}
	return snap, err
}

// Job snapshots an async job by id.
func (e *Engine) Job(id string) (jobs.Snapshot, bool) { return e.jobMgr.Get(id) }

// JobResults returns the verdicts a job has produced so far plus its
// snapshot.
func (e *Engine) JobResults(id string) ([]VerdictEvent, jobs.Snapshot, bool) {
	return e.jobMgr.Results(id)
}

// CancelJob requests cooperative cancellation of a job.
func (e *Engine) CancelJob(id string) (jobs.Snapshot, bool) { return e.jobMgr.Cancel(id) }

// FollowJob blocks until the job has verdicts past cursor or is
// terminal — the tailing primitive behind GET /v1/jobs/{id}/events.
func (e *Engine) FollowJob(ctx context.Context, id string, cursor int) ([]VerdictEvent, jobs.Snapshot, bool) {
	return e.jobMgr.Follow(ctx, id, cursor)
}
