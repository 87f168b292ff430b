package router

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"mpidetect/internal/serve"
	"mpidetect/internal/serve/rest"
	"mpidetect/internal/serve/servetest"
	"mpidetect/internal/store"
)

// TestStatsKeySets pins the /v1/stats wire shape twice over: a backend
// engine's own body, and the router's body over two such backends
// (router section, aggregate and each backend's raw stats). Every
// backend has every section on — verdict cache, tools, durable store,
// jobs — and one classify and one analyze go through the router first.
// The recursive key set of each body must match its golden list.
func TestStatsKeySets(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		reg := serve.NewRegistry()
		reg.Register("ir2vec", servetest.Trained(t))
		eng := serve.NewEngine(reg, serve.Config{CacheSize: 64, Tools: serve.DefaultTools(), Store: st})
		t.Cleanup(eng.Close)
		srv := httptest.NewServer(rest.NewHandler(reg, eng))
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	rt, err := New(Config{Backends: urls, CheckInterval: 10 * time.Millisecond, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	h := rt.Handler()

	prog := servetest.Corpus(t, 1)[0]
	for _, r := range []struct {
		path string
		body any
	}{
		{"/v1/classify", rest.ClassifyRequest{Model: "ir2vec",
			Programs: []serve.Program{{Name: prog.Name, IR: prog.IR}}}},
		{"/v1/analyze", serve.AnalyzeRequest{Model: "ir2vec",
			Program: serve.Program{Name: "pp", IR: servetest.PingpongIR(t, "pp")}}},
	} {
		b, _ := json.Marshal(r.body)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(b)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", r.path, w.Code, w.Body)
		}
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("router stats = %d", w.Code)
	}
	matchGolden(t, "testdata/router_stats_keys.golden", jsonKeys(t, w.Body.Bytes()))

	// The analyze ran on one backend only, so ask that one: its body
	// carries the per-tool breakers.
	checked := false
	for _, u := range urls {
		resp, err := http.Get(u + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(body, []byte(`"breakers"`)) {
			checked = true
			matchGolden(t, "testdata/engine_stats_keys.golden", jsonKeys(t, body))
		}
	}
	if !checked {
		t.Fatal("no backend reports the analyze's tool breakers")
	}
}

// jsonKeys returns the sorted recursive key set of a JSON document, one
// dotted path per object key. "[]" stands for every element of an array
// and "<backend>" for a key that is a backend URL, so the set describes
// the document's shape, not its values.
func jsonKeys(t *testing.T, body []byte) []string {
	t.Helper()
	var doc any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("decoding JSON: %v", err)
	}
	set := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				if strings.Contains(k, "://") {
					k = "<backend>"
				}
				if prefix != "" {
					k = prefix + "." + k
				}
				set[k] = true
				walk(k, child)
			}
		case []any:
			for _, child := range v {
				walk(prefix+"[]", child)
			}
		}
	}
	walk("", doc)
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// matchGolden fails t unless lines equal the lines of the golden file at
// path, listing what is missing and what is extra.
func matchGolden(t *testing.T, path string, lines []string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		want[l] = true
	}
	var extra []string
	for _, l := range lines {
		if !want[l] {
			extra = append(extra, l)
		}
		delete(want, l)
	}
	if len(want) == 0 && len(extra) == 0 {
		return
	}
	missing := make([]string, 0, len(want))
	for l := range want {
		missing = append(missing, l)
	}
	sort.Strings(missing)
	t.Errorf("%s: missing %q, extra %q; the full set is:\n%s",
		path, missing, extra, strings.Join(lines, "\n"))
}
