// The router's HTTP surface. It speaks the same v1 API as a backend —
// a client cannot tell a router from a single mpidetectd except by the
// extra "router" section in /v1/stats — but under each route the work
// is sharded across the ring:
//
//	POST /v1/classify       split by routing digest, fan out, merge by index (hedged)
//	POST /v1/analyze        single-shard proxy with replica retries
//	POST /v1/analyze/batch  split, per-shard NDJSON streams merged with index remap
//	GET  /v1/stats          fan-in: router + aggregate + per-backend stats
//	GET  /v1/healthz        router liveness
//	GET  /v1/readyz         ring health (degraded when any backend is out) + draining
//	GET  /v1/models         proxied from the first live backend
//
// The async-job and admin surfaces are deliberately NOT routed: a job id
// is backend-local state, and admin actions (snapshots, fault arming)
// target one process. Those return a structured 404 telling the caller
// to address a backend directly.
package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"mpidetect/internal/fault"
	"mpidetect/internal/resilience"
	"mpidetect/internal/serve"
	"mpidetect/internal/serve/rest"
)

// forward relays a buffered backend response verbatim — status,
// content type, body — preserving the backend's envelope for 4xx and
// deliberate non-JSON replies alike.
func forward(w http.ResponseWriter, res proxyResult) {
	ct := res.contentType
	if ct == "" {
		ct = "application/json"
	}
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// shardError maps a failed shard onto the envelope: every replica down
// is a 503 the client should retry against, anything else a 502.
func shardError(w http.ResponseWriter, err error) {
	if errors.Is(err, errNoBackend) {
		rest.WriteError(w, http.StatusServiceUnavailable, "no_backend", err.Error())
		return
	}
	rest.WriteError(w, http.StatusBadGateway, "bad_gateway", err.Error())
}

// Handler mounts the router's v1 surface.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/classify", rt.classifyHandler)
	mux.HandleFunc("POST /v1/analyze", rt.analyzeHandler)
	mux.HandleFunc("POST /v1/analyze/batch", rt.batchHandler)
	mux.HandleFunc("GET /v1/stats", rt.statsHandler)
	mux.HandleFunc("GET /v1/healthz", rt.healthzHandler)
	mux.HandleFunc("GET /v1/readyz", rt.readyzHandler)
	mux.HandleFunc("GET /v1/models", rt.modelsHandler)
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		rest.WriteError(w, http.StatusNotFound, "not_routed",
			"this endpoint is backend-local; address a backend directly")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		rest.WriteError(w, http.StatusNotFound, "not_found", "no such route")
	})
	return mux
}

// readBody reads the bounded request body, answering the envelope on
// failure.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, maxProxyBody)
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			rest.WriteError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				"reading request: "+err.Error())
			return nil, false
		}
		rest.WriteError(w, http.StatusBadRequest, "invalid_json",
			"reading request: "+err.Error())
		return nil, false
	}
	return raw, true
}

// decode parses a bounded JSON body into v, answering the envelope on
// failure. The raw bytes come back too, so single-shard requests can be
// proxied verbatim instead of re-encoded.
func (rt *Router) decode(w http.ResponseWriter, r *http.Request, v any) ([]byte, bool) {
	raw, ok := rt.readBody(w, r)
	if !ok {
		return nil, false
	}
	if err := json.Unmarshal(raw, v); err != nil {
		rest.WriteError(w, http.StatusBadRequest, "invalid_json",
			"decoding request: "+err.Error())
		return nil, false
	}
	return raw, true
}

// proxySolo is the single-backend deployment's hot path: with exactly
// one configured backend the ring has exactly one possible owner, so
// the router acts as a transparent streaming proxy — no JSON parse, no
// digests, no buffering; request and response bytes flow straight
// through. Retries and hedges need a second replica, and with one
// candidate doShard could never retry either, so single-attempt
// streaming gives up nothing. Breaker accounting, the fault point, and
// the no-backend 503 still apply. Returns false when the deployment
// has more than one backend.
func (rt *Router) proxySolo(w http.ResponseWriter, r *http.Request, path string) bool {
	if len(rt.backends) != 1 {
		return false
	}
	cands := rt.candidates("")
	if len(cands) == 0 {
		atomic.AddInt64(&rt.stats.NoBackend, 1)
		shardError(w, errNoBackend)
		return true
	}
	b := rt.backends[cands[0]]
	atomic.AddInt64(&rt.stats.Proxied, 1)
	atomic.AddInt64(&b.stats.Requests, 1)
	relayed, err := rt.relay(w, r, b, path)
	if !rt.recordAttempt(r.Context(), b, err == nil, err) {
		return true // the caller walked away: nobody is left to answer
	}
	if err != nil && !relayed {
		shardError(w, err)
	}
	return true
}

// relay streams one request straight through to a backend and its
// response straight back. relayed reports whether response bytes (or
// headers) already reached the client — past that point an error can
// only be logged against the backend, not answered with an envelope.
func (rt *Router) relay(w http.ResponseWriter, r *http.Request, b *backend, path string) (relayed bool, err error) {
	if err := fault.Inject(FaultProxy); err != nil {
		return false, err
	}
	body := http.MaxBytesReader(w, r.Body, maxProxyBody)
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, b.name+path, body)
	if err != nil {
		return false, err
	}
	req.ContentLength = r.ContentLength
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		return false, fmt.Errorf("HTTP %d from %s", resp.StatusCode, b.name)
	}
	ct := resp.Header.Get("Content-Type")
	if ct == "" {
		ct = "application/json"
	}
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		return true, fmt.Errorf("relaying response from %s: %w", b.name, err)
	}
	return true, nil
}

// shard is one backend's slice of a split batch: the original request
// indices it carries and the representative routing key doShard routes
// by (every index in the shard has the same live primary).
type shard struct {
	key     string
	indices []int
}

// splitByOwner groups program indices by their live-ring primary.
// Shards come back in deterministic (first-index) order. ok=false means
// the ring is empty.
func (rt *Router) splitByOwner(model string, programs []serve.Program) ([]shard, bool) {
	live := rt.live.Load()
	if len(live.Members()) == 0 {
		return nil, false
	}
	if len(rt.backends) == 1 && len(programs) > 0 {
		// One-backend deployment: the ring has exactly one possible owner,
		// so skip the per-program digests — the router is a pure proxy
		// here and its overhead must price accordingly.
		s := shard{key: routeKey(model, ""), indices: make([]int, len(programs))}
		for i := range s.indices {
			s.indices[i] = i
		}
		return []shard{s}, true
	}
	byOwner := map[string]*shard{}
	order := []string{}
	for i, p := range programs {
		key := routeKey(model, p.IR)
		owner, _ := live.Owner(key)
		s, ok := byOwner[owner]
		if !ok {
			s = &shard{key: key}
			byOwner[owner] = s
			order = append(order, owner)
		}
		s.indices = append(s.indices, i)
	}
	shards := make([]shard, 0, len(order))
	for _, owner := range order {
		shards = append(shards, *byOwner[owner])
	}
	return shards, true
}

// classifyHandler splits the batch across the ring by routing digest,
// fans the sub-batches out concurrently (hedged — classify is the
// idempotent, content-addressed hot path), and merges the per-shard
// results back into request order. A deliberate backend error (4xx)
// from any shard is forwarded verbatim; a shard whose every replica is
// down degrades to per-program error results so the rest of the batch
// still answers.
func (rt *Router) classifyHandler(w http.ResponseWriter, r *http.Request) {
	atomic.AddInt64(&rt.stats.Requests, 1)
	if rt.proxySolo(w, r, "/v1/classify") {
		return
	}
	var req rest.ClassifyRequest
	raw, ok := rt.decode(w, r, &req)
	if !ok {
		return
	}
	shards, ok := rt.splitByOwner(req.Model, req.Programs)
	if !ok {
		atomic.AddInt64(&rt.stats.NoBackend, 1)
		shardError(w, errNoBackend)
		return
	}
	if len(req.Programs) == 0 {
		// Nothing to split; let a backend produce the canonical
		// empty-batch envelope.
		res, err := rt.doShard(r.Context(), routeKey(req.Model, ""), http.MethodPost,
			"/v1/classify", raw, false)
		if err != nil {
			shardError(w, err)
			return
		}
		forward(w, res)
		return
	}
	if len(shards) == 1 && len(shards[0].indices) == len(req.Programs) {
		// The whole batch has one owner (a single shard's indices are
		// always 0..n-1 in request order): proxy the original body
		// verbatim and relay the answer unmodified — no re-encode, no
		// re-merge — still hedged, retried, and breaker-accounted like
		// any shard.
		res, err := rt.doShard(r.Context(), shards[0].key, http.MethodPost, "/v1/classify", raw, true)
		if err != nil {
			// Same degradation as the merge path below: the batch still
			// answers, each program carrying the router's error.
			merged := make([]serve.Result, len(req.Programs))
			for i, p := range req.Programs {
				merged[i] = serve.Result{Name: p.Name, Err: "router: " + err.Error()}
			}
			rest.WriteJSON(w, http.StatusOK, rest.ClassifyResponse{Model: req.Model, Results: merged})
			return
		}
		forward(w, res)
		return
	}

	type shardOut struct {
		res proxyResult
		err error
	}
	outs := make([]shardOut, len(shards))
	var wg sync.WaitGroup
	for si, s := range shards {
		sub := rest.ClassifyRequest{Model: req.Model,
			Programs: make([]serve.Program, len(s.indices))}
		for j, idx := range s.indices {
			sub.Programs[j] = req.Programs[idx]
		}
		wg.Add(1)
		go func(si int, key string, body []byte) {
			defer wg.Done()
			res, err := rt.doShard(r.Context(), key, http.MethodPost, "/v1/classify", body, true)
			outs[si] = shardOut{res, err}
		}(si, s.key, mustJSON(sub))
	}
	wg.Wait()

	// A backend that deliberately rejected its sub-batch (4xx) speaks
	// for the whole request — same model, same validation rules.
	for _, o := range outs {
		if o.err == nil && o.res.status != http.StatusOK {
			forward(w, o.res)
			return
		}
	}
	merged := make([]serve.Result, len(req.Programs))
	for si, o := range outs {
		if o.err != nil {
			for _, idx := range shards[si].indices {
				merged[idx] = serve.Result{Name: req.Programs[idx].Name,
					Err: "router: " + o.err.Error()}
			}
			continue
		}
		var sub rest.ClassifyResponse
		if err := json.Unmarshal(o.res.body, &sub); err != nil || len(sub.Results) != len(shards[si].indices) {
			for _, idx := range shards[si].indices {
				merged[idx] = serve.Result{Name: req.Programs[idx].Name,
					Err: fmt.Sprintf("router: malformed shard response from %s", o.res.backend)}
			}
			continue
		}
		for j, idx := range shards[si].indices {
			merged[idx] = sub.Results[j]
		}
	}
	rest.WriteJSON(w, http.StatusOK, rest.ClassifyResponse{Model: req.Model, Results: merged})
}

// analyzeHandler proxies a single program to its shard owner with
// replica retries. No hedging: analyze fans out to expert tools on the
// backend, so a hedge would double real pipeline work, not just race an
// idle replica's cache.
func (rt *Router) analyzeHandler(w http.ResponseWriter, r *http.Request) {
	atomic.AddInt64(&rt.stats.Requests, 1)
	if rt.proxySolo(w, r, "/v1/analyze") {
		return
	}
	var req serve.AnalyzeRequest
	raw, ok := rt.decode(w, r, &req)
	if !ok {
		return
	}
	key := routeKey(req.Model, req.Program.IR)
	res, err := rt.doShard(r.Context(), key, http.MethodPost, "/v1/analyze", raw, false)
	if err != nil {
		shardError(w, err)
		return
	}
	forward(w, res)
}

func (rt *Router) statsHandler(w http.ResponseWriter, r *http.Request) {
	atomic.AddInt64(&rt.stats.Requests, 1)
	rest.WriteJSON(w, http.StatusOK, rt.fanInStats(r.Context()))
}

func (rt *Router) healthzHandler(w http.ResponseWriter, r *http.Request) {
	rest.WriteJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"backends": len(rt.backends),
		"healthy":  len(rt.live.Load().Members()),
	})
}

func (rt *Router) readyzHandler(w http.ResponseWriter, r *http.Request) {
	rep := rt.Ready()
	status := http.StatusOK
	if rep.Status == resilience.StatusDraining {
		status = http.StatusServiceUnavailable
	}
	rest.WriteJSON(w, status, rep)
}

// modelsHandler proxies GET /v1/models from the first live backend that
// answers — every backend registers the same model set, so any healthy
// one speaks for the fleet.
func (rt *Router) modelsHandler(w http.ResponseWriter, r *http.Request) {
	atomic.AddInt64(&rt.stats.Requests, 1)
	members := rt.live.Load().Members()
	if len(members) == 0 {
		atomic.AddInt64(&rt.stats.NoBackend, 1)
		shardError(w, errNoBackend)
		return
	}
	var lastErr error
	for _, name := range members {
		res, err := rt.send(r.Context(), rt.backends[name], http.MethodGet, "/v1/models", nil)
		if err == nil && res.status < 500 {
			forward(w, res)
			return
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("HTTP %d from %s", res.status, name)
		}
	}
	shardError(w, fmt.Errorf("%w: %v", errNoBackend, lastErr))
}

// mustJSON marshals a value the router itself just decoded; a marshal
// failure here is a programming error, not an input error.
func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

// ---- streaming batch ----

// batchStream serializes merged NDJSON output from concurrent shard
// streams onto one response.
type batchStream struct {
	mu      sync.Mutex
	w       http.ResponseWriter
	flusher http.Flusher
	enc     *json.Encoder
	started bool // 200 + NDJSON headers committed
	aborted bool // a pre-stream 4xx was forwarded instead
	failed  bool // client write failed; stop emitting
	early   *proxyResult
}

// emit writes one remapped verdict event, committing the NDJSON headers
// on the first call.
func (bs *batchStream) emit(ev serve.VerdictEvent) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.aborted || bs.failed {
		return false
	}
	if !bs.started {
		bs.w.Header().Set("Content-Type", "application/x-ndjson")
		bs.w.WriteHeader(http.StatusOK)
		bs.started = true
	}
	if err := bs.enc.Encode(ev); err != nil {
		bs.failed = true
		return false
	}
	if bs.flusher != nil {
		bs.flusher.Flush()
	}
	return true
}

// abort records a deliberate backend rejection (4xx) seen before any
// event went out; the first one wins and is forwarded verbatim.
func (bs *batchStream) abort(res proxyResult) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.started || bs.aborted {
		return false
	}
	bs.aborted = true
	bs.early = &res
	return true
}

// batchHandler splits the batch by shard owner and streams every
// shard's NDJSON sub-stream back to the client concurrently, remapping
// each event's Index to the original request position. A shard stream
// that dies mid-flight retries ONLY its not-yet-streamed programs on
// the next ring replica — already-delivered verdicts are never
// replayed, so the client sees each index at most once. A shard whose
// replicas are exhausted degrades to per-program error events.
func (rt *Router) batchHandler(w http.ResponseWriter, r *http.Request) {
	atomic.AddInt64(&rt.stats.Requests, 1)
	var req serve.BatchRequest
	raw, ok := rt.decode(w, r, &req)
	if !ok {
		return
	}
	shards, ok := rt.splitByOwner(req.Model, req.Programs)
	if !ok {
		atomic.AddInt64(&rt.stats.NoBackend, 1)
		shardError(w, errNoBackend)
		return
	}
	if len(req.Programs) == 0 {
		res, err := rt.doShard(r.Context(), routeKey(req.Model, ""), http.MethodPost,
			"/v1/analyze/batch", raw, false)
		if err != nil {
			shardError(w, err)
			return
		}
		forward(w, res)
		return
	}

	flusher, _ := w.(http.Flusher)
	bs := &batchStream{w: w, flusher: flusher, enc: json.NewEncoder(w)}
	var wg sync.WaitGroup
	for _, s := range shards {
		wg.Add(1)
		go func(s shard) {
			defer wg.Done()
			rt.streamShard(r.Context(), req, s, bs)
		}(s)
	}
	wg.Wait()
	// All shard goroutines are done; bs is ours alone now.
	if bs.aborted && bs.early != nil {
		forward(w, *bs.early)
		return
	}
	if !bs.started {
		// Every shard failed before a single event: answer an envelope
		// rather than an empty 200 stream.
		shardError(w, errNoBackend)
	}
}

// streamShard drives one shard's sub-stream, walking ring replicas on
// mid-stream failure with only the undelivered programs.
func (rt *Router) streamShard(ctx context.Context, req serve.BatchRequest, s shard, bs *batchStream) {
	remaining := append([]int(nil), s.indices...)
	cands := rt.candidates(s.key)
	attempts := rt.cfg.MaxAttempts
	if attempts > len(cands) {
		attempts = len(cands)
	}
	var lastErr error
	for i := 0; i < attempts && len(remaining) > 0; i++ {
		if i > 0 {
			atomic.AddInt64(&rt.stats.Retries, 1)
			if err := rt.backoff(ctx, i); err != nil {
				break
			}
		}
		b := rt.backends[cands[i]]
		delivered, abort, err := rt.streamOnce(ctx, b, req, remaining, bs)
		// Remove delivered indices; retry carries only the rest.
		if len(delivered) > 0 {
			next := remaining[:0]
			for _, idx := range remaining {
				if _, done := delivered[idx]; !done {
					next = append(next, idx)
				}
			}
			remaining = next
		}
		if err == nil || abort {
			return
		}
		lastErr = err
		if ctx.Err() != nil {
			return // client gone; nothing left to answer
		}
	}
	if len(remaining) == 0 {
		return
	}
	if lastErr == nil {
		lastErr = errNoBackend
	}
	for _, idx := range remaining {
		bs.emit(serve.VerdictEvent{Index: idx, Name: req.Programs[idx].Name,
			Err: "router: " + lastErr.Error()})
	}
}

// streamOnce runs one backend's sub-stream for the given original
// indices, remapping and emitting each event. It returns the set of
// original indices delivered, whether a pre-stream 4xx aborted the
// whole batch, and the transport/5xx error if the stream died.
// The outcome feeds the backend's breaker like any proxied request.
func (rt *Router) streamOnce(ctx context.Context, b *backend, req serve.BatchRequest,
	indices []int, bs *batchStream) (map[int]struct{}, bool, error) {
	delivered := map[int]struct{}{}
	sub := serve.BatchRequest{Model: req.Model, Tools: req.Tools, Ranks: req.Ranks,
		Programs: make([]serve.Program, len(indices))}
	for j, idx := range indices {
		sub.Programs[j] = req.Programs[idx]
	}
	names := make([]string, len(indices))
	for j, idx := range indices {
		names[j] = req.Programs[idx].Name
	}
	atomic.AddInt64(&rt.stats.Proxied, 1)
	atomic.AddInt64(&b.stats.Requests, 1)
	ok, abort, err := rt.streamOnceRaw(ctx, b, mustJSON(sub), indices, names, delivered, bs)
	rt.recordAttempt(ctx, b, ok, err)
	return delivered, abort, err
}

func (rt *Router) streamOnceRaw(ctx context.Context, b *backend, body []byte,
	indices []int, names []string, delivered map[int]struct{}, bs *batchStream) (ok, abort bool, err error) {
	if err := fault.Inject(FaultProxy); err != nil {
		return false, false, err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		b.name+"/v1/analyze/batch", bytes.NewReader(body))
	if err != nil {
		return false, false, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(httpReq)
	if err != nil {
		return false, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		return false, false, fmt.Errorf("HTTP %d from %s", resp.StatusCode, b.name)
	}
	if resp.StatusCode != http.StatusOK {
		// A deliberate rejection. Forward it verbatim if nothing has
		// streamed yet; once the merged stream is underway the rejection
		// degrades to per-program error events (retrying a 4xx on another
		// replica would just repeat it). Either way this backend answered.
		data, _ := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
		res := proxyResult{status: resp.StatusCode,
			contentType: resp.Header.Get("Content-Type"), body: data, backend: b.name}
		if bs.abort(res) {
			return true, true, nil
		}
		for j, idx := range indices {
			bs.emit(serve.VerdictEvent{Index: idx, Name: names[j],
				Err: fmt.Sprintf("router: HTTP %d from %s", resp.StatusCode, b.name)})
			delivered[idx] = struct{}{}
		}
		return true, false, nil
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), maxProxyBody)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev serve.VerdictEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return false, false, fmt.Errorf("malformed stream line from %s: %v", b.name, err)
		}
		if ev.Index < 0 || ev.Index >= len(indices) {
			return false, false, fmt.Errorf("stream index %d out of range from %s", ev.Index, b.name)
		}
		orig := indices[ev.Index]
		ev.Index = orig
		bs.emit(ev)
		delivered[orig] = struct{}{}
	}
	if err := sc.Err(); err != nil {
		return false, false, fmt.Errorf("stream from %s died: %w", b.name, err)
	}
	return true, false, nil
}
