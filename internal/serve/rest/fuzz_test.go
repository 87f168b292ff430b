package rest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"mpidetect/internal/serve"
	"mpidetect/internal/serve/servetest"
)

// FuzzRESTBodies posts arbitrary bodies to /v1/classify (batch false)
// and /v1/analyze/batch (batch true) through the in-process handler.
// Every body must get one verdict per program, a stream of one verdict
// event per program, or a 4xx error envelope: never a 5xx, never a
// panic.
func FuzzRESTBodies(f *testing.F) {
	reg := serve.NewRegistry()
	reg.Register("ir2vec", servetest.Trained(f))
	eng := serve.NewEngine(reg, serve.Config{CacheSize: 64, MaxBatch: 4, MaxStreamBatch: 4,
		Tools: serve.DefaultTools()})
	f.Cleanup(eng.Close)
	h := NewHandler(reg, eng)

	prog := servetest.Corpus(f, 1)[0]
	mk := func(v any) []byte { b, _ := json.Marshal(v); return b }
	valid := []serve.Program{{Name: prog.Name, IR: prog.IR}}
	for _, batch := range []bool{false, true} {
		f.Add(batch, mk(ClassifyRequest{Model: "ir2vec", Programs: valid}))
		f.Add(batch, mk(serve.BatchRequest{Model: "ir2vec", Programs: []serve.Program{
			{Name: "pp", IR: servetest.PingpongIR(f, "pp")}}, Tools: []string{"parcoach", "must"}}))
		f.Add(batch, mk(ClassifyRequest{Model: "ir2vec", Programs: []serve.Program{{Name: "bad", IR: "define i32 @main( {"}}}))
		f.Add(batch, mk(ClassifyRequest{Model: "nope", Programs: valid}))
		f.Add(batch, []byte(`{"model":"ir2vec","programs":[{}],"tools":["lint"],"ranks":-7}`))
		f.Add(batch, []byte(`{"model":"ir2vec","programs":[]}`))
		f.Add(batch, []byte(`{`))
		f.Add(batch, []byte(``))
	}

	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		path := "/v1/classify"
		if batch {
			path = "/v1/analyze/batch"
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if w.Code >= 400 && w.Code < 500 {
			var env ErrorBody
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
				t.Fatalf("%s %d: not an error envelope: %q", path, w.Code, w.Body.Bytes())
			}
			return
		}
		if w.Code != http.StatusOK {
			t.Fatalf("%s answered %d for body %q: %s", path, w.Code, body, w.Body.Bytes())
		}
		// The handler decodes only the first JSON value of the body, and
		// so does this.
		dec := json.NewDecoder(bytes.NewReader(body))
		if !batch {
			var req ClassifyRequest
			if err := dec.Decode(&req); err != nil {
				t.Fatalf("classify answered 200 to a body that does not decode: %v", err)
			}
			var resp ClassifyResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("classify reply does not decode: %v: %q", err, w.Body.Bytes())
			}
			if len(resp.Results) != len(req.Programs) {
				t.Fatalf("classify answered %d results for %d programs", len(resp.Results), len(req.Programs))
			}
			for _, r := range resp.Results {
				if r.Err == "" && r.Label == "" {
					t.Fatalf("result %+v has neither a label nor an error", r)
				}
			}
			return
		}
		var req serve.BatchRequest
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("batch answered 200 to a body that does not decode: %v", err)
		}
		seen := map[int]bool{}
		sc := bufio.NewScanner(w.Body)
		sc.Buffer(nil, 1<<24)
		for sc.Scan() {
			var ev serve.VerdictEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("batch line does not decode: %v: %q", err, sc.Bytes())
			}
			if ev.Index < 0 || ev.Index >= len(req.Programs) || seen[ev.Index] {
				t.Fatalf("batch event index %d out of range or repeated (%d programs)", ev.Index, len(req.Programs))
			}
			seen[ev.Index] = true
		}
		if len(seen) != len(req.Programs) {
			t.Fatalf("batch streamed %d events for %d programs", len(seen), len(req.Programs))
		}
	})
}
