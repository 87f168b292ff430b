package rest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mpidetect/internal/events"
	"mpidetect/internal/jobs"
	"mpidetect/internal/serve"
	"mpidetect/internal/serve/servetest"
)

// newServer stands up the full stack — registry, engine, REST handler,
// live HTTP listener — for one test.
func newServer(t *testing.T, cfg serve.Config) (*httptest.Server, *serve.Engine, *serve.Registry) {
	t.Helper()
	reg := serve.NewRegistry()
	reg.Register("ir2vec", servetest.Trained(t))
	eng := serve.NewEngine(reg, cfg)
	t.Cleanup(eng.Close)
	srv := httptest.NewServer(NewHandler(reg, eng))
	t.Cleanup(srv.Close)
	return srv, eng, reg
}

// stallRegistry is a tool registry holding only a gate-controlled stall
// tool, keyed on the "stall" module-name prefix.
func stallRegistry() (*serve.ToolRegistry, *servetest.StallTool) {
	tools := serve.NewToolRegistry()
	stall := servetest.NewStallTool("stall")
	tools.Register("stall", stall, false)
	return tools, stall
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// errorCode decodes the unified envelope and returns its code.
func errorCode(t *testing.T, resp *http.Response) string {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error Content-Type %q, want application/json", ct)
	}
	var body ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding error envelope: %v", err)
	}
	if body.Error.Message == "" {
		t.Fatal("error envelope has empty message")
	}
	return body.Error.Code
}

func classifyBody(t *testing.T, n int) ClassifyRequest {
	t.Helper()
	req := ClassifyRequest{Model: "ir2vec"}
	for _, p := range servetest.Corpus(t, n) {
		req.Programs = append(req.Programs, serve.Program{Name: p.Name, IR: p.IR})
	}
	return req
}

// TestServeSavedArtifactOverHTTP is the transport acceptance: programs
// classified over the wire return the same verdicts twice (second pass
// cached), and the info endpoints report the serving state.
func TestServeSavedArtifactOverHTTP(t *testing.T) {
	srv, _, _ := newServer(t, serve.Config{CacheSize: 256})
	req := classifyBody(t, 4)

	classify := func() ClassifyResponse {
		resp := postJSON(t, srv.URL+"/v1/classify", req)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify status %d", resp.StatusCode)
		}
		if resp.Header.Get("Deprecation") != "" {
			t.Fatal("v1 route carries a Deprecation header")
		}
		var out ClassifyResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	cold := classify()
	if len(cold.Results) != 4 {
		t.Fatalf("%d results, want 4", len(cold.Results))
	}
	for _, r := range cold.Results {
		if r.Err != "" {
			t.Fatalf("%s: %s", r.Name, r.Err)
		}
	}
	warm := classify()
	for i := range cold.Results {
		if cold.Results[i] != warm.Results[i] {
			t.Fatalf("cached verdict diverged for %s", cold.Results[i].Name)
		}
	}

	hresp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health struct {
		Status string `json:"status"`
		Models int    `json:"models"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Models != 1 {
		t.Fatalf("healthz %+v", health)
	}

	mresp, err := http.Get(srv.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var ml struct {
		Models []ModelInfo `json:"models"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&ml); err != nil {
		t.Fatal(err)
	}
	if len(ml.Models) != 1 || ml.Models[0].Name != "ir2vec" {
		t.Fatalf("models %+v", ml.Models)
	}
}

// TestStatsReportsJobsAndEvents is the satellite-3 surface check: the
// /v1/stats payload carries the async-job and event-bus sections next to
// the engine/cache counters.
func TestStatsReportsJobsAndEvents(t *testing.T) {
	srv, _, _ := newServer(t, serve.Config{CacheSize: 64, JobQueueDepth: 7})
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Jobs == nil || st.Jobs.QueueCapacity != 7 {
		t.Fatalf("stats jobs section %+v, want queue capacity 7", st.Jobs)
	}
	if st.Events == nil {
		t.Fatal("stats missing events section")
	}
	if st.Models != 1 {
		t.Fatalf("stats models %d, want 1", st.Models)
	}
	if st.Pipeline.PredictBatch <= 0 {
		t.Fatalf("stats pipeline section %+v, want positive predict_batch", st.Pipeline)
	}
}

// TestErrorEnvelope drives every endpoint's failure modes through the
// unified {"error":{"code","message"}} envelope.
func TestErrorEnvelope(t *testing.T) {
	tools, _ := stallRegistry()
	srv, _, _ := newServer(t, serve.Config{
		CacheSize: 64, MaxBatch: 2, MaxStreamBatch: 2, Tools: tools})
	progs := classifyBody(t, 3).Programs
	mk := func(v any) string { b, _ := json.Marshal(v); return string(b) }

	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 string
	}{
		{"classify unknown model", "POST", "/v1/classify",
			mk(ClassifyRequest{Model: "nope", Programs: progs[:1]}),
			http.StatusNotFound, "unknown_model"},
		{"classify empty batch", "POST", "/v1/classify",
			mk(ClassifyRequest{Model: "ir2vec"}),
			http.StatusBadRequest, "empty_batch"},
		{"classify oversized batch", "POST", "/v1/classify",
			mk(ClassifyRequest{Model: "ir2vec", Programs: progs}),
			http.StatusRequestEntityTooLarge, "batch_too_large"},
		{"classify bad json", "POST", "/v1/classify", "{",
			http.StatusBadRequest, "invalid_json"},
		{"analyze unknown tool", "POST", "/v1/analyze",
			mk(serve.AnalyzeRequest{Model: "ir2vec", Tools: []string{"lint"},
				Program: serve.Program{Name: "p", IR: progs[0].IR}}),
			http.StatusBadRequest, "unknown_tool"},
		{"analyze empty program", "POST", "/v1/analyze",
			mk(serve.AnalyzeRequest{Model: "ir2vec"}),
			http.StatusBadRequest, "empty_program"},
		{"batch empty", "POST", "/v1/analyze/batch",
			mk(serve.BatchRequest{Model: "ir2vec"}),
			http.StatusBadRequest, "empty_batch"},
		{"batch oversized", "POST", "/v1/analyze/batch",
			mk(serve.BatchRequest{Model: "ir2vec", Programs: progs}),
			http.StatusRequestEntityTooLarge, "batch_too_large"},
		{"batch bad json", "POST", "/v1/analyze/batch", "]",
			http.StatusBadRequest, "invalid_json"},
		{"job submit unknown model", "POST", "/v1/jobs",
			mk(serve.BatchRequest{Model: "nope", Programs: progs[:1]}),
			http.StatusNotFound, "unknown_model"},
		{"job status unknown", "GET", "/v1/jobs/job-999", "",
			http.StatusNotFound, "unknown_job"},
		{"job results unknown", "GET", "/v1/jobs/job-999/results", "",
			http.StatusNotFound, "unknown_job"},
		{"job cancel unknown", "DELETE", "/v1/jobs/job-999", "",
			http.StatusNotFound, "unknown_job"},
		{"job events unknown", "GET", "/v1/jobs/job-999/events", "",
			http.StatusNotFound, "unknown_job"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if code := errorCode(t, resp); code != tc.wantCode {
				t.Fatalf("code %q, want %q", code, tc.wantCode)
			}
		})
	}

	// The analysis tier disabled (no -tools) is its own envelope.
	bare, _, _ := newServer(t, serve.Config{CacheSize: 16})
	for _, path := range []string{"/v1/analyze", "/v1/analyze/batch", "/v1/jobs"} {
		resp, err := http.Post(bare.URL+path, "application/json",
			strings.NewReader(mk(serve.BatchRequest{Model: "ir2vec", Programs: progs[:1]})))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s disabled status %d, want 404", path, resp.StatusCode)
		}
		if code := errorCode(t, resp); code != "analysis_disabled" {
			t.Fatalf("%s disabled code %q", path, code)
		}
		resp.Body.Close()
	}
}

// TestBatchStreamsFirstVerdictBeforeLast is the PR acceptance: a
// 100-program batch with one program stalled inside a tool delivers the
// other 99 NDJSON verdict lines while the stall is still held.
func TestBatchStreamsFirstVerdictBeforeLast(t *testing.T) {
	tools, stall := stallRegistry()
	srv, _, _ := newServer(t, serve.Config{CacheSize: 1024, Tools: tools})

	req := serve.BatchRequest{Model: "ir2vec",
		Programs: []serve.Program{{Name: "stall", IR: servetest.PingpongIR(t, "stall")}}}
	for i := 0; i < 99; i++ {
		name := fmt.Sprintf("pp-%d", i)
		req.Programs = append(req.Programs,
			serve.Program{Name: name, IR: servetest.PingpongIR(t, name)})
	}
	resp := postJSON(t, srv.URL+"/v1/analyze/batch", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for n := 0; n < 99; n++ {
		if !sc.Scan() {
			t.Fatalf("stream ended after %d lines with the stall held: %v", n, sc.Err())
		}
		var ev serve.VerdictEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Name == "stall" {
			t.Fatal("stalled program's verdict arrived while its tool was gated")
		}
		if ev.Err != "" {
			t.Fatalf("program %s errored: %s", ev.Name, ev.Err)
		}
	}
	// 99 verdicts crossed the wire; the batch is still in flight.
	close(stall.Gate)
	if !sc.Scan() {
		t.Fatalf("no final line after releasing the gate: %v", sc.Err())
	}
	var last serve.VerdictEvent
	if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
		t.Fatal(err)
	}
	if last.Name != "stall" || last.Err != "" {
		t.Fatalf("final line %+v, want the clean stalled verdict", last)
	}
	if sc.Scan() {
		t.Fatalf("unexpected extra line %q", sc.Text())
	}
}

// TestBatchClientDisconnectCancelsWork is satellite 4: dropping the
// NDJSON connection mid-stream cancels the remaining engine work, and a
// second request coalesced onto the canceled leader's flight still gets
// its verdict.
func TestBatchClientDisconnectCancelsWork(t *testing.T) {
	tools, stall := stallRegistry()
	srv, eng, _ := newServer(t, serve.Config{CacheSize: 64, Tools: tools, BatchParallel: 1})

	shared := serve.BatchRequest{Model: "ir2vec",
		Programs: []serve.Program{{Name: "stall-shared", IR: servetest.PingpongIR(t, "stall-shared")}}}
	body, _ := json.Marshal(shared)

	// Leader: a batch whose only program stalls inside the tool.
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	reqA, err := http.NewRequestWithContext(ctxA, "POST",
		srv.URL+"/v1/analyze/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	respA, err := http.DefaultClient.Do(reqA)
	if err != nil {
		t.Fatal(err)
	}
	defer respA.Body.Close()
	<-stall.Stalled() // the leader's tool call is blocked on the gate

	// Follower: same program, coalesces onto the leader's flight.
	type result struct {
		ev  serve.VerdictEvent
		err error
	}
	followerDone := make(chan result, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/analyze/batch", "application/json",
			bytes.NewReader(body))
		if err != nil {
			followerDone <- result{err: err}
			return
		}
		defer resp.Body.Close()
		line, err := io.ReadAll(resp.Body)
		if err != nil {
			followerDone <- result{err: err}
			return
		}
		var ev serve.VerdictEvent
		if err := json.Unmarshal(bytes.TrimSpace(line), &ev); err != nil {
			followerDone <- result{err: fmt.Errorf("bad line %q: %w", line, err)}
			return
		}
		followerDone <- result{ev: ev}
	}()

	// Drop the leader's connection, then release the gate: the follower
	// must retry the flight on its own budget and land a clean verdict.
	cancelA()
	if _, err := io.ReadAll(respA.Body); err == nil {
		t.Fatal("leader body read succeeded after cancel")
	}
	close(stall.Gate)

	select {
	case res := <-followerDone:
		if res.err != nil {
			t.Fatalf("follower: %v", res.err)
		}
		if res.ev.Err != "" || len(res.ev.Tools) != 1 || res.ev.Tools[0].Verdict != "clean" {
			t.Fatalf("follower verdict %+v, want clean", res.ev)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("follower never completed after leader disconnect")
	}

	// The engine drained: all sim/batch work released (Close would hang
	// on a leaked worker; -race would flag an unsynchronized leak).
	if st := eng.Stats().Analyze; st.BatchRequests != 2 {
		t.Fatalf("batch requests %d, want 2", st.BatchRequests)
	}
}

// sseFrame is one parsed Server-Sent Event.
type sseFrame struct {
	event string
	data  []byte
}

// readFrame parses the next "event:"/"data:" frame off an SSE stream.
func readFrame(t *testing.T, br *bufio.Reader) sseFrame {
	t.Helper()
	var f sseFrame
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream ended: %v (frame so far %+v)", err, f)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			f.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			f.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && f.event != "":
			return f
		}
	}
}

// TestJobLifecycleOverHTTP: submit → 202 + Location, SSE verdict stream
// to the terminal "done" frame, then status and results by id.
func TestJobLifecycleOverHTTP(t *testing.T) {
	srv, _, _ := newServer(t, serve.Config{CacheSize: 256, Tools: serve.DefaultTools()})
	req := serve.BatchRequest{Model: "ir2vec"}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("job-pp-%d", i)
		req.Programs = append(req.Programs,
			serve.Program{Name: name, IR: servetest.PingpongIR(t, name)})
	}
	resp := postJSON(t, srv.URL+"/v1/jobs", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	var snap jobs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+snap.ID {
		t.Fatalf("Location %q, want /v1/jobs/%s", loc, snap.ID)
	}

	// Tail the job's SSE stream to completion.
	eresp, err := http.Get(srv.URL + "/v1/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if ct := eresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type %q", ct)
	}
	br := bufio.NewReader(eresp.Body)
	verdicts := 0
	for {
		f := readFrame(t, br)
		if f.event == "verdict" {
			var ev serve.VerdictEvent
			if err := json.Unmarshal(f.data, &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Err != "" {
				t.Fatalf("job program %s errored: %s", ev.Name, ev.Err)
			}
			verdicts++
			continue
		}
		if f.event != "done" {
			t.Fatalf("unexpected SSE event %q", f.event)
		}
		var final jobs.Snapshot
		if err := json.Unmarshal(f.data, &final); err != nil {
			t.Fatal(err)
		}
		if final.State != jobs.StateCompleted || final.Done != 3 {
			t.Fatalf("done frame %+v, want completed 3/3", final)
		}
		break
	}
	if verdicts != 3 {
		t.Fatalf("streamed %d verdicts, want 3", verdicts)
	}

	sresp, err := http.Get(srv.URL + "/v1/jobs/" + snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var status jobs.Snapshot
	if err := json.NewDecoder(sresp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.State != jobs.StateCompleted {
		t.Fatalf("status %+v, want completed", status)
	}

	rresp, err := http.Get(srv.URL + "/v1/jobs/" + snap.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	var results struct {
		Job     jobs.Snapshot        `json:"job"`
		Results []serve.VerdictEvent `json:"results"`
	}
	if err := json.NewDecoder(rresp.Body).Decode(&results); err != nil {
		t.Fatal(err)
	}
	if len(results.Results) != 3 {
		t.Fatalf("%d results, want 3", len(results.Results))
	}
}

// TestJobBackpressureOverHTTP: with one worker held and the queue full,
// the next submission is 429 queue_full with a Retry-After hint.
func TestJobBackpressureOverHTTP(t *testing.T) {
	tools, stall := stallRegistry()
	srv, _, _ := newServer(t, serve.Config{CacheSize: 64, Tools: tools,
		JobWorkers: 1, JobQueueDepth: 1})
	defer close(stall.Gate)

	req := serve.BatchRequest{Model: "ir2vec",
		Programs: []serve.Program{{Name: "stall", IR: servetest.PingpongIR(t, "stall")}}}
	first := postJSON(t, srv.URL+"/v1/jobs", req)
	first.Body.Close()
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status %d", first.StatusCode)
	}
	<-stall.Stalled() // the lone worker is now pinned
	second := postJSON(t, srv.URL+"/v1/jobs", req)
	second.Body.Close()
	if second.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit status %d", second.StatusCode)
	}

	third := postJSON(t, srv.URL+"/v1/jobs", req)
	defer third.Body.Close()
	if third.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit status %d, want 429", third.StatusCode)
	}
	if ra := third.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if code := errorCode(t, third); code != "queue_full" {
		t.Fatalf("overflow code %q, want queue_full", code)
	}
}

// TestJobCancelOverHTTP: DELETE aborts a running job cooperatively.
func TestJobCancelOverHTTP(t *testing.T) {
	tools, stall := stallRegistry()
	srv, _, _ := newServer(t, serve.Config{CacheSize: 64, Tools: tools})
	defer close(stall.Gate)

	req := serve.BatchRequest{Model: "ir2vec",
		Programs: []serve.Program{{Name: "stall", IR: servetest.PingpongIR(t, "stall")}}}
	resp := postJSON(t, srv.URL+"/v1/jobs", req)
	var snap jobs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	<-stall.Stalled()

	dreq, err := http.NewRequest("DELETE", srv.URL+"/v1/jobs/"+snap.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", dresp.StatusCode)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		sresp, err := http.Get(srv.URL + "/v1/jobs/" + snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		var s jobs.Snapshot
		if err := json.NewDecoder(sresp.Body).Decode(&s); err != nil {
			t.Fatal(err)
		}
		sresp.Body.Close()
		if s.State == jobs.StateCanceled {
			return
		}
		if s.State.Terminal() {
			t.Fatalf("job ended %s, want canceled", s.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after cancel", s.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBusEventsSSE: GET /v1/events streams engine events with the bus
// type as the SSE event name, and ?types= filters at the subscription.
func TestBusEventsSSE(t *testing.T) {
	tools, _ := stallRegistry()
	srv, _, reg := newServer(t, serve.Config{CacheSize: 64, Tools: tools})

	resp, err := http.Get(srv.URL + "/v1/events?types=model.reloaded")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}

	// Noise first: an analyze publishes verdict.completed, which the
	// filter must drop. Then a model reload, which must come through as
	// the FIRST frame.
	aresp := postJSON(t, srv.URL+"/v1/analyze", serve.AnalyzeRequest{Model: "ir2vec",
		Program: serve.Program{Name: "quiet", IR: servetest.PingpongIR(t, "quiet")}})
	aresp.Body.Close()
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status %d", aresp.StatusCode)
	}
	reg.Register("ir2vec", servetest.Trained(t))

	f := readFrame(t, bufio.NewReader(resp.Body))
	if f.event != string(events.ModelReloaded) {
		t.Fatalf("first frame event %q, want %q (filter leaked)", f.event, events.ModelReloaded)
	}
	var ev struct {
		Seq  uint64         `json:"seq"`
		Type string         `json:"type"`
		Data map[string]any `json:"data"`
	}
	if err := json.Unmarshal(f.data, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Type != string(events.ModelReloaded) || ev.Data["model"] != "ir2vec" {
		t.Fatalf("frame payload %+v", ev)
	}
}
