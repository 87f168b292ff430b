package router

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mpidetect/internal/serve"
	"mpidetect/internal/serve/rest"
)

// fakeBackend is a scripted mpidetectd: just enough of the v1 surface
// for the router, with failure/latency knobs per endpoint.
type fakeBackend struct {
	id  string
	srv *httptest.Server

	classifies  atomic.Int64 // classify sub-requests served
	batches     atomic.Int64
	readyFail   atomic.Bool  // readyz answers 500
	classify500 atomic.Bool  // classify answers 500
	classify404 atomic.Bool  // classify answers a deliberate envelope
	classifyLag atomic.Int64 // ns to sleep before answering classify
	dropBatchAt atomic.Int64 // >0: sever the batch stream after N events
}

func newFakeBackend(t *testing.T, id string) *fakeBackend {
	t.Helper()
	f := &fakeBackend{id: id}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		if f.readyFail.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("POST /v1/classify", func(w http.ResponseWriter, r *http.Request) {
		f.classifies.Add(1)
		if lag := f.classifyLag.Load(); lag > 0 {
			select {
			case <-time.After(time.Duration(lag)):
			case <-r.Context().Done():
				return
			}
		}
		if f.classify500.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		if f.classify404.Load() {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusNotFound)
			w.Write([]byte(`{"error":{"code":"unknown_model","message":"nope"}}`))
			return
		}
		var req rest.ClassifyRequest
		json.NewDecoder(r.Body).Decode(&req)
		resp := rest.ClassifyResponse{Model: req.Model}
		for _, p := range req.Programs {
			resp.Results = append(resp.Results,
				serve.Result{Name: p.Name, Label: "fake-" + f.id, Confidence: 1})
		}
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("POST /v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"backend":"` + f.id + `"}`))
	})
	mux.HandleFunc("POST /v1/analyze/batch", func(w http.ResponseWriter, r *http.Request) {
		f.batches.Add(1)
		var req serve.BatchRequest
		json.NewDecoder(r.Body).Decode(&req)
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		flusher, _ := w.(http.Flusher)
		for i, p := range req.Programs {
			if cut := f.dropBatchAt.Load(); cut > 0 && int64(i) >= cut {
				// Sever the connection mid-stream (panic is net/http's
				// sanctioned hard abort).
				panic(http.ErrAbortHandler)
			}
			enc.Encode(serve.VerdictEvent{Index: i, Name: p.Name,
				ML: serve.Result{Label: "fake-" + f.id}})
			if flusher != nil {
				flusher.Flush()
			}
		}
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"engine":{"requests":%d,"programs":%d,"pipeline_execs":%d},"cache":{"hits":1,"misses":2,"size":3,"capacity":10}}`,
			f.classifies.Load(), f.classifies.Load(), f.classifies.Load())
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"models":[{"name":"fake-` + f.id + `"}]}`))
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

// newTestRouter builds a router over the fakes with fast test timings.
func newTestRouter(t *testing.T, cfg Config, fakes ...*fakeBackend) *Router {
	t.Helper()
	for _, f := range fakes {
		cfg.Backends = append(cfg.Backends, f.srv.URL)
	}
	if cfg.CheckInterval == 0 {
		cfg.CheckInterval = 10 * time.Millisecond
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = 40 * time.Millisecond
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = -1 // deterministic unless a test opts in
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// byName maps fake backends by normalized URL so tests can find the
// owner of a key.
func byName(fakes ...*fakeBackend) map[string]*fakeBackend {
	m := map[string]*fakeBackend{}
	for _, f := range fakes {
		m[f.srv.URL] = f
	}
	return m
}

func classifyVia(t *testing.T, h http.Handler, model string, progs ...serve.Program) (*httptest.ResponseRecorder, rest.ClassifyResponse) {
	t.Helper()
	body, _ := json.Marshal(rest.ClassifyRequest{Model: model, Programs: progs})
	req := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var resp rest.ClassifyResponse
	if w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decoding classify response: %v (%s)", err, w.Body.String())
		}
	}
	return w, resp
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRouterShardsDeterministically: the same program always lands on
// the same backend, and the fleet shares a spread-out corpus.
func TestRouterShardsDeterministically(t *testing.T) {
	a, b := newFakeBackend(t, "a"), newFakeBackend(t, "b")
	rt := newTestRouter(t, Config{}, a, b)
	h := rt.Handler()
	fakes := byName(a, b)

	owners := map[string]string{}
	for i := 0; i < 8; i++ {
		p := serve.Program{Name: fmt.Sprintf("p%d", i), IR: fmt.Sprintf("unit p%d\n", i)}
		for round := 0; round < 2; round++ {
			w, resp := classifyVia(t, h, "m", p)
			if w.Code != http.StatusOK {
				t.Fatalf("classify = %d: %s", w.Code, w.Body.String())
			}
			got := resp.Results[0].Label
			if prev, ok := owners[p.Name]; ok && prev != got {
				t.Fatalf("program %s flapped %s -> %s", p.Name, prev, got)
			}
			owners[p.Name] = got
		}
		// Routing agrees with the ring.
		owner, _ := rt.live.Load().Owner(routeKey("m", p.IR))
		if want := "fake-" + fakes[owner].id; owners[p.Name] != want {
			t.Fatalf("program %s served by %s, ring owner is %s", p.Name, owners[p.Name], want)
		}
	}
}

// TestRouterSplitBatchMerge: a batch spanning both shards comes back
// merged in request order, every result from its own shard owner.
func TestRouterSplitBatchMerge(t *testing.T) {
	a, b := newFakeBackend(t, "a"), newFakeBackend(t, "b")
	rt := newTestRouter(t, Config{}, a, b)
	fakes := byName(a, b)

	var progs []serve.Program
	for i := 0; i < 32; i++ {
		progs = append(progs, serve.Program{Name: fmt.Sprintf("p%d", i),
			IR: fmt.Sprintf("batch p%d\n", i)})
	}
	w, resp := classifyVia(t, rt.Handler(), "m", progs...)
	if w.Code != http.StatusOK {
		t.Fatalf("classify = %d: %s", w.Code, w.Body.String())
	}
	if len(resp.Results) != len(progs) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(progs))
	}
	shards := map[string]int{}
	for i, r := range resp.Results {
		if r.Name != progs[i].Name {
			t.Fatalf("result %d is %q, want %q (order lost)", i, r.Name, progs[i].Name)
		}
		owner, _ := rt.live.Load().Owner(routeKey("m", progs[i].IR))
		if want := "fake-" + fakes[owner].id; r.Label != want {
			t.Fatalf("program %s answered by %s, want shard owner %s", r.Name, r.Label, want)
		}
		shards[r.Label]++
	}
	if len(shards) != 2 {
		t.Fatalf("batch did not split across both backends: %v", shards)
	}
}

// TestRouterRetryReroutes: a backend that 500s every classify is routed
// around — the request still answers from the next replica.
func TestRouterRetryReroutes(t *testing.T) {
	a, b := newFakeBackend(t, "a"), newFakeBackend(t, "b")
	rt := newTestRouter(t, Config{BreakerFailures: 100, RetryBackoff: time.Millisecond}, a, b)
	fakes := byName(a, b)

	// Find a program owned by a live backend, then break that backend.
	p := ownedProgram(t, rt, "m", fakes, nil)
	owner := fakes[ownerOf(rt, "m", p)]
	owner.classify500.Store(true)

	w, resp := classifyVia(t, rt.Handler(), "m", p)
	if w.Code != http.StatusOK {
		t.Fatalf("classify = %d: %s", w.Code, w.Body.String())
	}
	if want := "fake-" + owner.id; resp.Results[0].Label == want {
		t.Fatalf("result still came from the broken owner %s", want)
	}
	if resp.Results[0].Err != "" {
		t.Fatalf("rerouted result carries error: %+v", resp.Results[0])
	}
	if rt.Stats().Retries == 0 {
		t.Fatal("no retry counted")
	}
}

// ownerOf returns the live-ring owner URL of a program.
func ownerOf(rt *Router, model string, p serve.Program) string {
	owner, _ := rt.live.Load().Owner(routeKey(model, p.IR))
	return owner
}

// ownedProgram fabricates a program owned by any backend (or by the
// specific backend `want` if non-nil).
func ownedProgram(t *testing.T, rt *Router, model string, fakes map[string]*fakeBackend, want *fakeBackend) serve.Program {
	t.Helper()
	for i := 0; i < 10000; i++ {
		p := serve.Program{Name: fmt.Sprintf("seek%d", i), IR: fmt.Sprintf("seek p%d\n", i)}
		owner := ownerOf(rt, model, p)
		if owner == "" {
			t.Fatal("empty ring")
		}
		if want == nil || fakes[owner] == want {
			return p
		}
	}
	t.Fatal("no program found for the wanted owner")
	return serve.Program{}
}

// TestRouter4xxPassThrough: a deliberate backend rejection is forwarded
// verbatim — status, envelope and all — and never retried.
func TestRouter4xxPassThrough(t *testing.T) {
	a, b := newFakeBackend(t, "a"), newFakeBackend(t, "b")
	rt := newTestRouter(t, Config{}, a, b)
	fakes := byName(a, b)

	p := ownedProgram(t, rt, "m", fakes, nil)
	owner := fakes[ownerOf(rt, "m", p)]
	owner.classify404.Store(true)
	before := a.classifies.Load() + b.classifies.Load()

	w, _ := classifyVia(t, rt.Handler(), "m", p)
	if w.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404 passed through", w.Code)
	}
	var envelope rest.ErrorBody
	if err := json.Unmarshal(w.Body.Bytes(), &envelope); err != nil || envelope.Error.Code != "unknown_model" {
		t.Fatalf("envelope not preserved: %s", w.Body.String())
	}
	if got := a.classifies.Load() + b.classifies.Load() - before; got != 1 {
		t.Fatalf("4xx caused %d sub-requests, want 1 (no retry)", got)
	}
}

// TestRouterEjectionAndReadmission: failing health probes eject a
// backend (its keys remap), recovery re-admits it via the half-open
// probe (its keys come back).
func TestRouterEjectionAndReadmission(t *testing.T) {
	a, b := newFakeBackend(t, "a"), newFakeBackend(t, "b")
	rt := newTestRouter(t, Config{BreakerFailures: 2}, a, b)
	fakes := byName(a, b)
	p := ownedProgram(t, rt, "m", fakes, nil)
	victim := fakes[ownerOf(rt, "m", p)]

	victim.readyFail.Store(true)
	waitFor(t, 5*time.Second, "ejection", func() bool {
		s := rt.Stats()
		return s.HealthyBackends == 1 && s.Ejections >= 1
	})
	// The victim's key now answers from the surviving replica.
	w, resp := classifyVia(t, rt.Handler(), "m", p)
	if w.Code != http.StatusOK || resp.Results[0].Label == "fake-"+victim.id {
		t.Fatalf("ejected backend still serving: %d %+v", w.Code, resp.Results)
	}
	if rt.Stats().Remaps == 0 {
		t.Fatal("no remap counted for an ejected owner's key")
	}

	victim.readyFail.Store(false)
	waitFor(t, 5*time.Second, "readmission", func() bool {
		s := rt.Stats()
		return s.HealthyBackends == 2 && s.Readmissions >= 1
	})
	// Ownership restored: the key routes to its original owner again.
	waitFor(t, 5*time.Second, "ownership restored", func() bool {
		_, resp := classifyVia(t, rt.Handler(), "m", p)
		return len(resp.Results) == 1 && resp.Results[0].Label == "fake-"+victim.id
	})
}

// TestRouterHedging: a classify sub-request that overstays the hedge
// delay races the next replica; the fast copy wins and the client never
// sees the slow backend's latency.
func TestRouterHedging(t *testing.T) {
	a, b := newFakeBackend(t, "a"), newFakeBackend(t, "b")
	rt := newTestRouter(t, Config{HedgeAfter: 5 * time.Millisecond}, a, b)
	fakes := byName(a, b)
	p := ownedProgram(t, rt, "m", fakes, nil)
	slow := fakes[ownerOf(rt, "m", p)]
	slow.classifyLag.Store(int64(2 * time.Second))

	start := time.Now()
	w, resp := classifyVia(t, rt.Handler(), "m", p)
	elapsed := time.Since(start)
	if w.Code != http.StatusOK {
		t.Fatalf("classify = %d: %s", w.Code, w.Body.String())
	}
	if resp.Results[0].Label == "fake-"+slow.id {
		t.Fatal("slow primary won; hedge never fired")
	}
	if elapsed > time.Second {
		t.Fatalf("hedged request took %s; the hedge should have answered fast", elapsed)
	}
	s := rt.Stats()
	if s.HedgesLaunched == 0 || s.HedgesWon == 0 {
		t.Fatalf("hedge counters empty: %+v", s)
	}
}

// TestRouterDrainFlipsReadyz: StartDraining turns the router's own
// readiness to 503/draining while requests keep answering.
func TestRouterDrainFlipsReadyz(t *testing.T) {
	a := newFakeBackend(t, "a")
	rt := newTestRouter(t, Config{}, a)
	h := rt.Handler()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/readyz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("readyz before drain = %d", w.Code)
	}
	rt.StartDraining()
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/readyz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz draining = %d, want 503", w.Code)
	}
	if !strings.Contains(w.Body.String(), "draining") {
		t.Fatalf("draining report missing: %s", w.Body.String())
	}
	// In-flight work still answers while draining.
	if w, _ := classifyVia(t, h, "m", serve.Program{Name: "p", IR: "solo p\n"}); w.Code != http.StatusOK {
		t.Fatalf("classify while draining = %d", w.Code)
	}
}

// TestRouterStatsFanIn: /v1/stats carries the router section, a summed
// aggregate, and every backend's raw body.
func TestRouterStatsFanIn(t *testing.T) {
	a, b := newFakeBackend(t, "a"), newFakeBackend(t, "b")
	rt := newTestRouter(t, Config{}, a, b)
	classifyVia(t, rt.Handler(), "m", serve.Program{Name: "p", IR: "solo p\n"})

	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("stats = %d", w.Code)
	}
	var body struct {
		Router    Stats          `json:"router"`
		Aggregate aggregateStats `json:"aggregate"`
		Backends  map[string]any `json:"backends"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	if len(body.Router.Backends) != 2 || body.Router.HealthyBackends != 2 {
		t.Fatalf("router section wrong: %+v", body.Router)
	}
	if body.Aggregate.Reachable != 2 || body.Aggregate.Requests == 0 {
		t.Fatalf("aggregate wrong: %+v", body.Aggregate)
	}
	if body.Aggregate.CacheCapacity != 20 { // 10 per fake backend
		t.Fatalf("aggregate cache capacity = %d, want summed 20", body.Aggregate.CacheCapacity)
	}
	if len(body.Backends) != 2 {
		t.Fatalf("backend sections = %d, want 2", len(body.Backends))
	}
}

// TestRouterBatchStreamMerge: the NDJSON batch is split per shard,
// streamed concurrently, and every event's index is remapped to its
// original request position.
func TestRouterBatchStreamMerge(t *testing.T) {
	a, b := newFakeBackend(t, "a"), newFakeBackend(t, "b")
	rt := newTestRouter(t, Config{}, a, b)

	var progs []serve.Program
	for i := 0; i < 24; i++ {
		progs = append(progs, serve.Program{Name: fmt.Sprintf("p%d", i),
			IR: fmt.Sprintf("stream p%d\n", i)})
	}
	body, _ := json.Marshal(serve.BatchRequest{Model: "m", Programs: progs})
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze/batch", bytes.NewReader(body))
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("batch = %d: %s", w.Code, w.Body.String())
	}
	if a.batches.Load() == 0 || b.batches.Load() == 0 {
		t.Fatalf("batch not split: a=%d b=%d", a.batches.Load(), b.batches.Load())
	}
	seen := map[int]serve.VerdictEvent{}
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		var ev serve.VerdictEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if _, dup := seen[ev.Index]; dup {
			t.Fatalf("index %d delivered twice", ev.Index)
		}
		seen[ev.Index] = ev
	}
	if len(seen) != len(progs) {
		t.Fatalf("stream delivered %d events, want %d", len(seen), len(progs))
	}
	for i, p := range progs {
		ev, ok := seen[i]
		if !ok || ev.Name != p.Name || ev.Err != "" {
			t.Fatalf("index %d: got %+v, want clean event for %s", i, ev, p.Name)
		}
	}
}

// TestRouterBatchMidStreamRetry: a shard stream severed mid-flight
// resumes on the next replica with ONLY the undelivered programs —
// every index arrives exactly once, none replayed.
func TestRouterBatchMidStreamRetry(t *testing.T) {
	a, b := newFakeBackend(t, "a"), newFakeBackend(t, "b")
	rt := newTestRouter(t, Config{BreakerFailures: 100, RetryBackoff: time.Millisecond}, a, b)
	fakes := byName(a, b)

	// A batch whose programs ALL live on one backend, which will cut the
	// stream after 2 events.
	victim := fakes[ownerOf(rt, "m", serve.Program{IR: "seed p0\n"})]
	var progs []serve.Program
	for i := 0; len(progs) < 6; i++ {
		p := serve.Program{Name: fmt.Sprintf("v%d", i), IR: fmt.Sprintf("victim p%d\n", i)}
		if fakes[ownerOf(rt, "m", p)] == victim {
			progs = append(progs, p)
		}
	}
	victim.dropBatchAt.Store(2)

	body, _ := json.Marshal(serve.BatchRequest{Model: "m", Programs: progs})
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze/batch", bytes.NewReader(body))
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("batch = %d: %s", w.Code, w.Body.String())
	}
	seen := map[int]serve.VerdictEvent{}
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		var ev serve.VerdictEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if _, dup := seen[ev.Index]; dup {
			t.Fatalf("index %d replayed after the mid-stream retry", ev.Index)
		}
		seen[ev.Index] = ev
	}
	if len(seen) != len(progs) {
		t.Fatalf("delivered %d events, want %d", len(seen), len(progs))
	}
	other := "fake-a"
	if victim == fakes[a.srv.URL] {
		other = "fake-b"
	}
	fromVictim, fromOther := 0, 0
	for i := range progs {
		ev := seen[i]
		if ev.Err != "" {
			t.Fatalf("index %d carries error %q; retry should have answered it", i, ev.Err)
		}
		switch ev.ML.Label {
		case "fake-" + victim.id:
			fromVictim++
		case other:
			fromOther++
		}
	}
	if fromVictim == 0 || fromOther == 0 {
		t.Fatalf("retry split wrong: %d from severed backend, %d from replica", fromVictim, fromOther)
	}
	if rt.Stats().Retries == 0 {
		t.Fatal("no retry counted")
	}
}

// TestRouterNoBackend: with the whole fleet ejected, requests answer a
// structured 503 envelope — never a hang or a panic.
func TestRouterNoBackend(t *testing.T) {
	a := newFakeBackend(t, "a")
	rt := newTestRouter(t, Config{BreakerFailures: 1}, a)
	a.readyFail.Store(true)
	waitFor(t, 5*time.Second, "fleet ejection", func() bool {
		return rt.Stats().HealthyBackends == 0
	})
	w, _ := classifyVia(t, rt.Handler(), "m", serve.Program{Name: "p", IR: "solo p\n"})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("classify with empty ring = %d, want 503", w.Code)
	}
	var envelope rest.ErrorBody
	if err := json.Unmarshal(w.Body.Bytes(), &envelope); err != nil || envelope.Error.Code != "no_backend" {
		t.Fatalf("envelope = %s", w.Body.String())
	}
	if w.Result().Header.Get("Retry-After") == "" {
		t.Fatal("no Retry-After on 503")
	}
}

// TestRouterJobsNotRouted: backend-local surfaces answer a structured
// 404 explaining themselves.
func TestRouterJobsNotRouted(t *testing.T) {
	a := newFakeBackend(t, "a")
	rt := newTestRouter(t, Config{}, a)
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader("{}")))
	if w.Code != http.StatusNotFound {
		t.Fatalf("jobs via router = %d, want 404", w.Code)
	}
	var envelope rest.ErrorBody
	if err := json.Unmarshal(w.Body.Bytes(), &envelope); err != nil || envelope.Error.Code != "not_routed" {
		t.Fatalf("envelope = %s", w.Body.String())
	}
}

// TestHedgeDelayAdapts: without a fixed HedgeAfter the hedge trigger is
// the classify latency EWMA plus three mean absolute deviations (α 0.2,
// each seeded by its first sample), floored at 2ms, and no hedging
// before the first sample.
func TestHedgeDelayAdapts(t *testing.T) {
	rt := &Router{}
	if d := rt.hedgeDelay(); d != 0 {
		t.Fatalf("hedge delay with no samples = %v, want 0", d)
	}
	for _, c := range []struct{ sample, want time.Duration }{
		{10 * time.Millisecond, 10 * time.Millisecond}, // mean 10ms, no deviation yet
		{20 * time.Millisecond, 42 * time.Millisecond}, // mean 12ms, deviation 10ms
	} {
		rt.observeLatency(c.sample)
		if d := rt.hedgeDelay(); d != c.want {
			t.Fatalf("after a %v sample: hedge delay %v, want %v", c.sample, d, c.want)
		}
	}
	fast := &Router{}
	fast.observeLatency(time.Millisecond)
	if d := fast.hedgeDelay(); d != 2*time.Millisecond {
		t.Fatalf("hedge delay after a 1ms sample = %v, want the 2ms floor", d)
	}
}
