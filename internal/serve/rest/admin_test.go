package rest

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mpidetect/internal/serve"
	"mpidetect/internal/serve/servetest"
	"mpidetect/internal/store"
)

// newStoredServer stands up the stack with a durable store mounted.
func newStoredServer(t *testing.T, cfg serve.Config) (*httptest.Server, *serve.Engine) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 256
	}
	reg := serve.NewRegistry()
	reg.Register("ir2vec", servetest.Trained(t))
	eng := serve.NewEngine(reg, cfg)
	srv := httptest.NewServer(NewHandler(reg, eng))
	t.Cleanup(func() { srv.Close(); eng.Close(); st.Close() })
	return srv, eng
}

// TestAdminSnapshotRestoreOverHTTP drives the full admin surface: warm
// the store over the wire, snapshot it (named and auto-named), list the
// archives, restore one, and read the store stats section back.
func TestAdminSnapshotRestoreOverHTTP(t *testing.T) {
	srv, _ := newStoredServer(t, serve.Config{})
	resp := postJSON(t, srv.URL+"/v1/classify", classifyBody(t, 4))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Named snapshot.
	resp = postJSON(t, srv.URL+"/v1/admin/snapshot", SnapshotRequest{Name: "rel-1"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("snapshot: %d", resp.StatusCode)
	}
	var info store.SnapshotInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Name != "rel-1" || info.Records == 0 {
		t.Fatalf("snapshot info %+v", info)
	}

	// Auto-named snapshot from an empty body.
	resp, err := http.Post(srv.URL+"/v1/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("empty-body snapshot: %d", resp.StatusCode)
	}
	var auto store.SnapshotInfo
	if err := json.NewDecoder(resp.Body).Decode(&auto); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.HasPrefix(auto.Name, "snap-") {
		t.Fatalf("auto snapshot name %q", auto.Name)
	}

	resp, err = http.Get(srv.URL + "/v1/admin/snapshots")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Snapshots []store.SnapshotInfo `json:"snapshots"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Snapshots) != 2 {
		t.Fatalf("listed %d snapshots, want 2: %+v", len(list.Snapshots), list.Snapshots)
	}

	resp = postJSON(t, srv.URL+"/v1/admin/restore", RestoreRequest{Name: "rel-1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: %d", resp.StatusCode)
	}
	var ri store.RestoreInfo
	if err := json.NewDecoder(resp.Body).Decode(&ri); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ri.Restored != info.Records {
		t.Fatalf("restore %+v, want %d records back", ri, info.Records)
	}

	// The stats body carries the store section.
	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	raw, ok := stats["store"]
	if !ok {
		t.Fatal("stats missing store section")
	}
	var ss serve.StoreStats
	if err := json.Unmarshal(raw, &ss); err != nil {
		t.Fatal(err)
	}
	if ss.Log.Segments == 0 || ss.Classify.QueueCapacity == 0 {
		t.Fatalf("store stats incomplete: %+v", ss)
	}
}

// TestAdminErrorCodes pins the envelope codes of the admin surface.
func TestAdminErrorCodes(t *testing.T) {
	srv, _ := newStoredServer(t, serve.Config{})
	resp := postJSON(t, srv.URL+"/v1/admin/snapshot", SnapshotRequest{Name: "../escape"})
	if resp.StatusCode != http.StatusBadRequest || errorCode(t, resp) != "bad_snapshot_name" {
		t.Fatalf("bad name: %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, srv.URL+"/v1/admin/restore", RestoreRequest{Name: "no-such"})
	if resp.StatusCode != http.StatusNotFound || errorCode(t, resp) != "unknown_snapshot" {
		t.Fatalf("unknown snapshot: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestAdminWithoutStoreAnswers404: a store-less engine reports the tier
// disabled on every admin route.
func TestAdminWithoutStoreAnswers404(t *testing.T) {
	srv, _, _ := newServer(t, serve.Config{CacheSize: 64})
	for _, probe := range []struct {
		method, path string
	}{
		{"POST", "/v1/admin/snapshot"},
		{"GET", "/v1/admin/snapshots"},
		{"POST", "/v1/admin/restore"},
	} {
		var resp *http.Response
		if probe.method == "POST" {
			resp = postJSON(t, srv.URL+probe.path, map[string]string{"name": "x"})
		} else {
			var err error
			resp, err = http.Get(srv.URL + probe.path)
			if err != nil {
				t.Fatal(err)
			}
		}
		if resp.StatusCode != http.StatusNotFound || errorCode(t, resp) != "store_disabled" {
			t.Fatalf("%s %s: %d, want 404 store_disabled", probe.method, probe.path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestRoutesAreV1Only: every route lives under /v1/, so the unversioned
// paths must not exist — a plain mux 404, no deprecation alias.
func TestRoutesAreV1Only(t *testing.T) {
	srv, _ := newStoredServer(t, serve.Config{})
	for _, probe := range []struct {
		method, path string
	}{
		{"POST", "/classify"},
		{"POST", "/analyze"},
		{"GET", "/healthz"},
		{"GET", "/models"},
		{"GET", "/stats"},
		{"POST", "/admin/snapshot"},
		{"GET", "/admin/snapshots"},
		{"POST", "/admin/restore"},
	} {
		req, err := http.NewRequest(probe.method, srv.URL+probe.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: %d, want 404 (no legacy alias)", probe.method, probe.path, resp.StatusCode)
		}
		if resp.Header.Get("Deprecation") != "" {
			t.Fatalf("%s %s: deprecation header on a route that must not exist", probe.method, probe.path)
		}
		resp.Body.Close()
	}
}
