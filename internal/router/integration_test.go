package router

import (
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"mpidetect/internal/serve"
	"mpidetect/internal/serve/rest"
	"mpidetect/internal/serve/servetest"
	"mpidetect/internal/store"
)

// realBackend is a full in-process mpidetectd: real engine, real REST
// transport, real durable store, on a real TCP listener — so killing it
// means killed sockets, not a polite shutdown.
type realBackend struct {
	addr string
	dir  string
	srv  *http.Server
	eng  *serve.Engine
	st   *store.Store
}

// start boots the backend's engine over its store dir and serves it on
// addr ("" = a fresh ephemeral port).
func (b *realBackend) start(t *testing.T, addr string) {
	t.Helper()
	st, err := store.Open(b.dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	reg.Register("ir2vec", servetest.Trained(t))
	eng := serve.NewEngine(reg, serve.Config{CacheSize: 512, Store: st})

	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	// Rebinding a just-killed port can briefly race the kernel's socket
	// teardown; retry within a short budget.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	b.addr = ln.Addr().String()
	b.st, b.eng = st, eng
	b.srv = &http.Server{Handler: rest.NewHandler(reg, eng)}
	go b.srv.Serve(ln)
}

// kill severs the backend the hard way: listener and every open
// connection close immediately. The engine and store stay up (they are
// torn down separately), mimicking a network partition / SIGKILLed
// process as seen from the router.
func (b *realBackend) kill() { b.srv.Close() }

// stop tears down the process state: engine drained (write-behind
// flushed to the store) and store closed.
func (b *realBackend) stop(t *testing.T) {
	t.Helper()
	b.eng.Close()
	if err := b.st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRouterKillRestartWarmFailover is the tentpole acceptance test:
// three real backends behind the router, one hard-killed mid-workload.
// Every request must still return a verdict (retries reroute, the ring
// ejects the corpse), and after a restart against its old store dir the
// backend is re-admitted via the half-open probe and serves its slice
// warm — zero ML pipeline executions for previously-seen digests.
func TestRouterKillRestartWarmFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-backend integration test")
	}
	backends := make([]*realBackend, 3)
	for i := range backends {
		backends[i] = &realBackend{dir: t.TempDir()}
		backends[i].start(t, "")
	}
	t.Cleanup(func() {
		for _, b := range backends {
			b.kill()
		}
	})

	rt, err := New(Config{
		Backends:        []string{backends[0].addr, backends[1].addr, backends[2].addr},
		CheckInterval:   20 * time.Millisecond,
		CheckTimeout:    time.Second,
		BreakerFailures: 2,
		BreakerCooldown: 100 * time.Millisecond,
		MaxAttempts:     3,
		RetryBackoff:    2 * time.Millisecond,
		HedgeAfter:      -1, // keep sub-requests deterministic: one backend per shard
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	h := rt.Handler()

	progs := make([]serve.Program, 18)
	for i := range progs {
		name := fmt.Sprintf("failover-%d", i)
		progs[i] = serve.Program{Name: name, IR: servetest.PingpongIR(t, name)}
	}
	// workload sends the whole corpus through the router and demands a
	// verdict — not a router error — for every single program.
	workload := func(phase string) {
		t.Helper()
		w, resp := classifyVia(t, h, "ir2vec", progs...)
		if w.Code != http.StatusOK {
			t.Fatalf("[%s] classify = %d: %s", phase, w.Code, w.Body.String())
		}
		if len(resp.Results) != len(progs) {
			t.Fatalf("[%s] %d results for %d programs", phase, len(resp.Results), len(progs))
		}
		for i, r := range resp.Results {
			if r.Err != "" {
				t.Fatalf("[%s] program %d failed: %q", phase, i, r.Err)
			}
			if r.Label == "" {
				t.Fatalf("[%s] program %d has no verdict: %+v", phase, i, r)
			}
		}
	}

	// Phase 1: full fleet. Every shard owner computes and persists its
	// slice of the corpus.
	workload("full-fleet")

	// Phase 2: hard-kill one backend and immediately keep serving. The
	// first post-kill rounds hit dead sockets; retries must absorb every
	// one of them — zero failed requests is the criterion. The victim is
	// the backend that computed the largest slice in phase 1: ring
	// ownership follows the ephemeral ports, and a fixed pick can own no
	// program of an 18-program corpus, leaving nothing to fail over.
	victim := backends[0]
	for _, b := range backends[1:] {
		if b.eng.Stats().Engine.PipelineExecs > victim.eng.Stats().Engine.PipelineExecs {
			victim = b
		}
	}
	if victim.eng.Stats().Engine.PipelineExecs == 0 {
		t.Fatal("no backend computed any program in the full-fleet phase")
	}
	victim.kill()
	for round := 0; round < 4; round++ {
		workload(fmt.Sprintf("post-kill-%d", round))
	}
	waitFor(t, 10*time.Second, "victim ejection", func() bool {
		s := rt.Stats()
		return s.HealthyBackends == 2 && s.Ejections >= 1
	})
	workload("post-ejection")
	if s := rt.Stats(); s.Retries == 0 {
		t.Fatalf("kill absorbed without a single retry? %+v", s)
	}

	// Phase 3: restart the victim on its old address against its old
	// store dir. Tear down the old process state first (flushing the
	// write-behind queue), as a real restart would.
	victim.stop(t)
	victim.start(t, victim.addr)
	waitFor(t, 10*time.Second, "victim readmission", func() bool {
		s := rt.Stats()
		return s.HealthyBackends == 3 && s.Readmissions >= 1
	})

	// Phase 4: the re-admitted backend reclaims exactly its old keys
	// (ring stability) and serves them from its warm durable store:
	// zero pipeline executions in the restarted process.
	workload("post-restart")
	warm := victim.eng.Stats()
	if warm.Engine.PipelineExecs != 0 {
		t.Fatalf("restarted backend ran %d pipeline execs; want 0 (warm store)",
			warm.Engine.PipelineExecs)
	}
	if warm.Engine.Requests == 0 {
		t.Fatal("restarted backend saw no traffic; readmission routed nothing back")
	}
	if warm.Cache.Hydrations == 0 {
		t.Fatalf("restarted backend hydrated nothing: %+v", warm.Cache)
	}
}
