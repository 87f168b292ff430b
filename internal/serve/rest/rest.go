// Package rest is the HTTP/JSON transport over the serve engine — the
// only layer of the serving stack that knows about net/http. It mounts
// the versioned v1 API:
//
//	POST /v1/classify            batched ML classification
//	POST /v1/analyze             hybrid single-program analysis
//	POST /v1/analyze/batch       streaming batch analysis (NDJSON)
//	POST /v1/jobs                submit an async batch job (202 + id)
//	GET  /v1/jobs/{id}           job status + progress
//	GET  /v1/jobs/{id}/results   verdicts accumulated so far
//	DELETE /v1/jobs/{id}         cancel a job
//	GET  /v1/jobs/{id}/events    per-job verdict stream (SSE)
//	GET  /v1/events              engine-wide event stream (SSE)
//	GET  /v1/healthz             liveness + model count
//	GET  /v1/readyz              readiness: ok/degraded/draining + detail
//	GET  /v1/models              registered models
//	GET  /v1/stats               engine/pipeline/cache/jobs/events/store counters
//	POST /v1/admin/snapshot      archive the durable verdict store
//	GET  /v1/admin/snapshots     list snapshot archives
//	POST /v1/admin/restore       restore the store from an archive
//	GET  /v1/admin/faults        list fault-injection points
//	POST /v1/admin/faults        arm a fault (chaos testing)
//	DELETE /v1/admin/faults[/{point}]  disarm one point / everything
//
// Every route is versioned: an unversioned path is a plain mux 404.
//
// Every error leaves through one JSON envelope,
//
//	{"error": {"code": "batch_too_large", "message": "..."}}
//
// with engine sentinel errors mapped to stable codes and statuses:
// validation 400, unknown names 404, oversized payloads 413, budget
// exhaustion 504, client disconnect 499, and backpressure 429/503 with
// Retry-After.
package rest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"mpidetect/internal/events"
	"mpidetect/internal/serve"
)

// maxBodyBytes bounds a request body.
const maxBodyBytes = 32 << 20

// retryAfterSeconds is the fallback Retry-After hint on 429/503
// backpressure responses without a measured estimate; queue-full and
// overload rejections carry one derived from observed drain rates
// (see engineError).
const retryAfterSeconds = 1

// defaultHeartbeat is the SSE keep-alive comment interval. Proxies and
// load balancers reap idle connections; a periodic ": ping" comment
// frame keeps a quiet stream alive without fabricating events.
const defaultHeartbeat = 15 * time.Second

// Options tunes transport behavior; the zero value takes the documented
// defaults.
type Options struct {
	// Heartbeat is the SSE keep-alive interval (default 15s; negative
	// disables heartbeats).
	Heartbeat time.Duration
}

func (o Options) withDefaults() Options {
	if o.Heartbeat == 0 {
		o.Heartbeat = defaultHeartbeat
	}
	return o
}

// ClassifyRequest is the POST /v1/classify body.
type ClassifyRequest struct {
	Model    string          `json:"model"`
	Programs []serve.Program `json:"programs"`
}

// ClassifyResponse is the POST /v1/classify reply.
type ClassifyResponse struct {
	Model   string         `json:"model"`
	Results []serve.Result `json:"results"`
}

// ModelInfo describes one registered model for GET /v1/models.
type ModelInfo struct {
	Name     string `json:"name"`
	Detector string `json:"detector"`
	Opt      string `json:"opt"`
}

// ErrorBody is the unified error envelope carried by every non-2xx
// response.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the envelope payload: a stable machine-readable code
// and a human-readable message.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the unified error envelope. A 429 or 503 without a
// Retry-After header set by the caller gets the static fallback hint.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		// Keep a measured Retry-After set by the caller; fall back to the
		// static hint otherwise.
		if w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds))
		}
	}
	WriteJSON(w, status, ErrorBody{Error: ErrorDetail{Code: code, Message: msg}})
}

// retrySeconds renders a duration as a whole-second Retry-After value,
// rounding up with a 1s floor.
func retrySeconds(d time.Duration) int {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

// statusClientClosed is the de-facto (nginx) status for client-closed
// requests.
const statusClientClosed = 499

// engineError maps an engine sentinel error onto the envelope.
func engineError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, serve.ErrUnknownModel):
		WriteError(w, http.StatusNotFound, "unknown_model", err.Error())
	case errors.Is(err, serve.ErrAnalysisDisabled):
		WriteError(w, http.StatusNotFound, "analysis_disabled", err.Error())
	case errors.Is(err, serve.ErrUnknownTool):
		WriteError(w, http.StatusBadRequest, "unknown_tool", err.Error())
	case errors.Is(err, serve.ErrEmptyBatch):
		WriteError(w, http.StatusBadRequest, "empty_batch", err.Error())
	case errors.Is(err, serve.ErrEmptyProgram):
		WriteError(w, http.StatusBadRequest, "empty_program", err.Error())
	case errors.Is(err, serve.ErrBatchTooLarge):
		WriteError(w, http.StatusRequestEntityTooLarge, "batch_too_large", err.Error())
	case errors.Is(err, serve.ErrTimeout):
		WriteError(w, http.StatusGatewayTimeout, "timeout", err.Error())
	case errors.Is(err, serve.ErrCanceled):
		WriteError(w, statusClientClosed, "canceled", err.Error())
	case errors.Is(err, serve.ErrJobQueueFull):
		// The engine attaches its observed drain estimate: Retry-After
		// tracks how fast the queue actually moves, not a constant.
		var qf *serve.QueueFullError
		if errors.As(err, &qf) {
			w.Header().Set("Retry-After", fmt.Sprint(retrySeconds(qf.RetryAfter)))
		}
		WriteError(w, http.StatusTooManyRequests, "queue_full", err.Error())
	case errors.Is(err, serve.ErrOverloaded):
		var ov *serve.OverloadedError
		if errors.As(err, &ov) {
			w.Header().Set("Retry-After", fmt.Sprint(retrySeconds(ov.Wait)))
		}
		WriteError(w, http.StatusServiceUnavailable, "overloaded", err.Error())
	default:
		WriteError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// decode parses a bounded JSON body into v; on failure it writes the
// envelope and reports false.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				"decoding request: "+err.Error())
			return false
		}
		WriteError(w, http.StatusBadRequest, "invalid_json",
			"decoding request: "+err.Error())
		return false
	}
	return true
}

// NewHandler wires the v1 API over the registry and engine with default
// Options.
func NewHandler(reg *serve.Registry, eng *serve.Engine) http.Handler {
	return NewHandlerOpts(reg, eng, Options{})
}

// NewHandlerOpts is NewHandler with explicit transport options.
func NewHandlerOpts(reg *serve.Registry, eng *serve.Engine, opts Options) http.Handler {
	opts = opts.withDefaults()
	mux := http.NewServeMux()

	classify := func(w http.ResponseWriter, r *http.Request) {
		var req ClassifyRequest
		if !decode(w, r, &req) {
			return
		}
		results, err := eng.Classify(r.Context(), req.Model, req.Programs)
		if err != nil {
			engineError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, ClassifyResponse{Model: req.Model, Results: results})
	}
	analyze := func(w http.ResponseWriter, r *http.Request) {
		var req serve.AnalyzeRequest
		if !decode(w, r, &req) {
			return
		}
		resp, err := eng.Analyze(r.Context(), req)
		if err != nil {
			engineError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, resp)
	}
	healthz := func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{
			"status": "ok",
			"models": len(reg.Names()),
		})
	}
	models := func(w http.ResponseWriter, r *http.Request) {
		infos := []ModelInfo{}
		for _, name := range reg.Names() {
			if d, ok := reg.Get(name); ok {
				infos = append(infos, ModelInfo{Name: name,
					Detector: d.Name(), Opt: d.Opt().String()})
			}
		}
		WriteJSON(w, http.StatusOK, map[string]any{"models": infos})
	}
	stats := func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, eng.Stats())
	}

	mux.HandleFunc("POST /v1/classify", classify)
	mux.HandleFunc("POST /v1/analyze", analyze)
	mux.HandleFunc("POST /v1/analyze/batch", batchHandler(eng))
	mux.HandleFunc("POST /v1/jobs", submitJobHandler(eng))
	mux.HandleFunc("GET /v1/jobs/{id}", jobStatusHandler(eng))
	mux.HandleFunc("GET /v1/jobs/{id}/results", jobResultsHandler(eng))
	mux.HandleFunc("DELETE /v1/jobs/{id}", jobCancelHandler(eng))
	mux.HandleFunc("GET /v1/jobs/{id}/events", jobEventsHandler(eng, opts.Heartbeat))
	mux.HandleFunc("GET /v1/events", busEventsHandler(eng, opts.Heartbeat))
	mux.HandleFunc("GET /v1/healthz", healthz)
	mux.HandleFunc("GET /v1/readyz", readyzHandler(eng))
	mux.HandleFunc("GET /v1/models", models)
	mux.HandleFunc("GET /v1/stats", stats)
	mux.HandleFunc("POST /v1/admin/snapshot", snapshotHandler(eng))
	mux.HandleFunc("GET /v1/admin/snapshots", snapshotsHandler(eng))
	mux.HandleFunc("POST /v1/admin/restore", restoreHandler(eng))
	mux.HandleFunc("GET /v1/admin/faults", listFaultsHandler())
	mux.HandleFunc("POST /v1/admin/faults", armFaultHandler())
	mux.HandleFunc("DELETE /v1/admin/faults/{point}", disarmFaultHandler())
	mux.HandleFunc("DELETE /v1/admin/faults", disarmAllFaultsHandler())
	return recoverPanics(mux)
}

// recoverPanics is the transport's last line of panic isolation: the
// pooled goroutines all recover their own panics into structured
// errors, so anything reaching here is a handler-level bug — answer a
// 500 envelope (when the response hasn't started) instead of letting
// net/http sever the connection with no body. http.ErrAbortHandler is
// re-raised: it is the sanctioned way to abort a response.
func recoverPanics(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				// Best-effort: if headers are already out this write is a
				// no-op on the status and the connection still dies, which
				// is the most net/http allows mid-stream.
				WriteError(w, http.StatusInternalServerError, "internal",
					fmt.Sprintf("panic: %v", rec))
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// batchHandler streams NDJSON: one VerdictEvent object per line, flushed
// as each program's analysis completes. Request-level validation errors
// are ordinary JSON envelopes (the stream never starts); per-program
// failures ride the stream in the event's "error" field.
func batchHandler(eng *serve.Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req serve.BatchRequest
		if !decode(w, r, &req) {
			return
		}
		ch, err := eng.AnalyzeBatch(r.Context(), req)
		if err != nil {
			engineError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		if flusher != nil {
			// Push the headers now: the client must see the stream open
			// before the first verdict lands, not when it does.
			flusher.Flush()
		}
		enc := json.NewEncoder(w)
		for ev := range ch {
			if err := enc.Encode(ev); err != nil {
				// The client is gone; r.Context() cancellation unwinds the
				// engine side, we just stop writing.
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

func submitJobHandler(eng *serve.Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req serve.BatchRequest
		if !decode(w, r, &req) {
			return
		}
		snap, err := eng.SubmitJob(req)
		if err != nil {
			engineError(w, err)
			return
		}
		w.Header().Set("Location", "/v1/jobs/"+snap.ID)
		WriteJSON(w, http.StatusAccepted, snap)
	}
}

func jobStatusHandler(eng *serve.Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		snap, ok := eng.Job(r.PathValue("id"))
		if !ok {
			WriteError(w, http.StatusNotFound, "unknown_job",
				"no job "+r.PathValue("id"))
			return
		}
		WriteJSON(w, http.StatusOK, snap)
	}
}

func jobResultsHandler(eng *serve.Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		results, snap, ok := eng.JobResults(r.PathValue("id"))
		if !ok {
			WriteError(w, http.StatusNotFound, "unknown_job",
				"no job "+r.PathValue("id"))
			return
		}
		WriteJSON(w, http.StatusOK, map[string]any{
			"job":     snap,
			"results": results,
		})
	}
}

func jobCancelHandler(eng *serve.Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		snap, ok := eng.CancelJob(r.PathValue("id"))
		if !ok {
			WriteError(w, http.StatusNotFound, "unknown_job",
				"no job "+r.PathValue("id"))
			return
		}
		WriteJSON(w, http.StatusOK, snap)
	}
}

// sseWriter frames Server-Sent Events onto a response.
type sseWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
}

func newSSE(w http.ResponseWriter) *sseWriter {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Headers go out immediately; frames may be a long time coming.
		flusher.Flush()
	}
	return &sseWriter{w: w, flusher: flusher}
}

// send writes one SSE frame ("event: name" + JSON data line).
func (s *sseWriter) send(event string, data any) error {
	payload, err := json.Marshal(data)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", event, payload); err != nil {
		return err
	}
	if s.flusher != nil {
		s.flusher.Flush()
	}
	return nil
}

// ping writes one SSE comment frame (": ping") — invisible to
// EventSource consumers, but traffic enough to keep idle-connection
// reapers (proxies, LBs) from severing a quiet stream.
func (s *sseWriter) ping() error {
	if _, err := fmt.Fprint(s.w, ": ping\n\n"); err != nil {
		return err
	}
	if s.flusher != nil {
		s.flusher.Flush()
	}
	return nil
}

// jobEventsHandler streams one job's verdicts as SSE "verdict" events
// (replaying from the start), closing with a terminal "done" event
// carrying the job's final snapshot. A slow job's quiet stretches are
// bridged with ": ping" heartbeats: each FollowJob wait is bounded by
// the heartbeat interval, and an expired wait pings instead of parking
// the connection silently until some proxy reaps it.
func jobEventsHandler(eng *serve.Engine, heartbeat time.Duration) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if _, ok := eng.Job(id); !ok {
			WriteError(w, http.StatusNotFound, "unknown_job", "no job "+id)
			return
		}
		sse := newSSE(w)
		cursor := 0
		for {
			followCtx, cancel := r.Context(), context.CancelFunc(func() {})
			if heartbeat > 0 {
				followCtx, cancel = context.WithTimeout(r.Context(), heartbeat)
			}
			results, snap, ok := eng.FollowJob(followCtx, id, cursor)
			cancel()
			if !ok {
				if r.Context().Err() != nil {
					return // client gone
				}
				if _, live := eng.Job(id); !live {
					return // job evicted mid-stream
				}
				// Heartbeat wait expired with nothing new: ping and re-park.
				if err := sse.ping(); err != nil {
					return
				}
				continue
			}
			for _, ev := range results {
				if err := sse.send("verdict", ev); err != nil {
					return
				}
			}
			cursor += len(results)
			if snap.State.Terminal() && cursor >= snap.Done {
				_ = sse.send("done", snap)
				return
			}
		}
	}
}

// busEventsHandler streams the engine's event bus as SSE, one frame per
// event with the bus type as the SSE event name. The optional ?types=
// query (comma-separated) filters event types. A slow client's events
// are dropped, never buffered unboundedly (the bus contract); quiet
// stretches carry ": ping" heartbeat comments.
func busEventsHandler(eng *serve.Engine, heartbeat time.Duration) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var types []events.Type
		if q := r.URL.Query().Get("types"); q != "" {
			for _, t := range strings.Split(q, ",") {
				if t = strings.TrimSpace(t); t != "" {
					types = append(types, events.Type(t))
				}
			}
		}
		sub := eng.Bus().Subscribe(events.DefaultBuffer, types...)
		defer sub.Close()
		sse := newSSE(w)
		var beat <-chan time.Time
		if heartbeat > 0 {
			t := time.NewTicker(heartbeat)
			defer t.Stop()
			beat = t.C
		}
		for {
			select {
			case ev := <-sub.C():
				if err := sse.send(string(ev.Type), ev); err != nil {
					return
				}
			case <-beat:
				if err := sse.ping(); err != nil {
					return
				}
			case <-r.Context().Done():
				return
			}
		}
	}
}
