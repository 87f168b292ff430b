// Command mpidetectd serves trained detectors over HTTP/JSON. Models are
// artifacts written by `mpidetect -save` (or core.SaveDetectorFile);
// classification requests carry textual IR and are executed on a shared
// worker pool with a per-request timeout.
//
// Usage:
//
//	mpidetect -train mbi -save mbi.bin
//	mpidetectd -model ir2vec=mbi.bin -addr :8080
//
//	curl -s localhost:8080/v1/models
//	curl -s localhost:8080/v1/stats
//	curl -s -X POST localhost:8080/v1/classify \
//	  -d '{"model":"ir2vec","programs":[{"name":"p","ir":"..."}]}'
//
// The API is versioned under /v1/; unversioned paths answer 404.
//
// A content-addressed verdict cache (-cache-size / -cache-ttl) fronts the
// classification pipeline: identical programs — resubmitted or concurrent
// — cost one pipeline execution; GET /v1/stats reports live hit/miss/
// eviction/coalesce counters.
//
// POST /v1/analyze (enabled by -tools) fans one program out to the ML
// detector plus the selected expert static/dynamic verification tools
// and returns per-tool verdicts and a combined ensemble verdict; dynamic
// tools simulate the program on a separate -sim-workers pool under the
// -sim-timeout wall-clock budget, with their verdicts cached per
// tool+configuration:
//
//	curl -s -X POST localhost:8080/v1/analyze \
//	  -d '{"model":"ir2vec","tools":["must","parcoach"],"program":{"name":"p","ir":"..."}}'
//
// Whole projects go through the batch tier. POST /v1/analyze/batch
// (up to -max-stream-batch programs) streams one NDJSON verdict line
// per program as each completes; POST /v1/jobs runs the same batch
// asynchronously on a bounded queue (-job-workers / -job-queue, full
// queue = 429 + Retry-After) with status, results, cancellation and an
// SSE verdict stream under /v1/jobs/{id}; GET /v1/events streams
// engine-wide events (verdict completions, cache invalidations, model
// reloads, job transitions) as SSE:
//
//	curl -sN -X POST localhost:8080/v1/analyze/batch \
//	  -d '{"model":"ir2vec","programs":[...]}'
//	curl -s -X POST localhost:8080/v1/jobs -d '{"model":"ir2vec","programs":[...]}'
//	curl -s localhost:8080/v1/jobs/job-1
//	curl -sN localhost:8080/v1/jobs/job-1/events
//	curl -sN 'localhost:8080/v1/events?types=model.reloaded,job.updated'
//
// A durable verdict store (-store-dir) persists classify and tool
// verdicts across restarts in an append-only segment log: inserts are
// written behind, boot replays the log so a restarted daemon serves
// previously-seen programs warm (zero pipeline/simulator executions),
// and named archives are managed over the admin surface:
//
//	mpidetectd -model ir2vec=mbi.bin -store-dir /var/lib/mpidetect
//	curl -s -X POST localhost:8080/v1/admin/snapshot -d '{"name":"nightly"}'
//	curl -s localhost:8080/v1/admin/snapshots
//	curl -s -X POST localhost:8080/v1/admin/restore -d '{"name":"nightly"}'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mpidetect/internal/serve"
	"mpidetect/internal/serve/rest"
	"mpidetect/internal/store"
)

var (
	addr       = flag.String("addr", ":8080", "listen address")
	workers    = flag.Int("workers", 0, "classification workers (0 = GOMAXPROCS)")
	maxBatch   = flag.Int("max-batch", 64, "max programs per /v1/classify request")
	timeout    = flag.Duration("timeout", 30*time.Second, "per-request classification budget")
	cacheSize  = flag.Int("cache-size", 4096, "verdict cache capacity in entries (0 disables caching and coalescing)")
	cacheTTL   = flag.Duration("cache-ttl", 15*time.Minute, "verdict cache entry lifetime (0 = no expiry)")
	toolsFlag  = flag.String("tools", "parcoach,mpi-checker,itac,must", "expert tools served by POST /v1/analyze, comma-separated (empty disables the endpoint)")
	simWorkers = flag.Int("sim-workers", 2, "concurrent dynamic-tool simulations")
	simTimeout = flag.Duration("sim-timeout", 5*time.Second, "wall-clock budget of one dynamic-tool simulation")

	maxStreamBatch = flag.Int("max-stream-batch", 1024, "max programs per /v1/analyze/batch or /v1/jobs request")
	jobWorkers     = flag.Int("job-workers", 2, "async jobs running concurrently")
	jobQueue       = flag.Int("job-queue", 16, "async jobs queued before submissions get 429")
	jobTimeout     = flag.Duration("job-timeout", 5*time.Minute, "wall-clock budget of one async job")

	storeDir      = flag.String("store-dir", "", "durable verdict store directory (empty disables persistence)")
	storeMaxBytes = flag.Int64("store-max-bytes", 64<<20, "segment roll threshold of the durable store")
	storeSync     = flag.Bool("store-sync", false, "fsync the durable store after every append (safest, slowest)")

	breakerFailures = flag.Int("breaker-failures", 5, "consecutive internal failures that trip a tool or store circuit breaker")
	breakerCooldown = flag.Duration("breaker-cooldown", 30*time.Second, "open period before a tripped breaker probes for recovery")

	readHeaderTimeout = flag.Duration("read-header-timeout", rest.DefaultReadHeaderTimeout, "time a client may take to send its request headers before the connection is dropped")

	models modelFlags
)

// modelFlags collects repeated -model name=path specs.
type modelFlags []string

func (m *modelFlags) String() string { return strings.Join(*m, ",") }
func (m *modelFlags) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	flag.Var(&models, "model", "model to serve, as name=artifact-path (repeatable)")
	flag.Parse()
	if len(models) == 0 {
		log.Fatal("mpidetectd: at least one -model name=path is required")
	}

	reg := serve.NewRegistry()
	for _, spec := range models {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			log.Fatalf("mpidetectd: bad -model spec %q (want name=path)", spec)
		}
		if err := reg.LoadFile(name, path); err != nil {
			log.Fatalf("mpidetectd: %v", err)
		}
		d, _ := reg.Get(name)
		fmt.Printf("loaded %s: %s (trained at %s)\n", name, d.Name(), d.Opt())
	}

	// Resolve the -tools selection against the built-in expert tools.
	var tools *serve.ToolRegistry
	if *toolsFlag != "" {
		all := serve.DefaultTools()
		tools = serve.NewToolRegistry()
		for _, name := range strings.Split(*toolsFlag, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			t, dynamic, ok := all.Get(name)
			if !ok {
				log.Fatalf("mpidetectd: unknown tool %q (have %s)",
					name, strings.Join(all.Names(), ", "))
			}
			tools.Register(name, t, dynamic)
		}
	}

	// Open the durable store before the engine so its replayed index
	// backs the caches from the first request (warm boot). Models are
	// registered above, before the engine attaches its OnReplace hooks —
	// loading a model AFTER the store is attached deliberately dooms that
	// model's persisted verdicts (reload semantics).
	var st *store.Store
	if *storeDir != "" {
		if *cacheSize <= 0 {
			log.Fatal("mpidetectd: -store-dir requires a verdict cache (-cache-size > 0)")
		}
		var err error
		st, err = store.Open(*storeDir, store.Options{
			SegmentBytes: *storeMaxBytes, SyncEveryAppend: *storeSync})
		if err != nil {
			log.Fatalf("mpidetectd: opening store: %v", err)
		}
		stats := st.Stats()
		fmt.Printf("durable store: %s (%d records warm, %d segments, %d bytes)\n",
			*storeDir, stats.Records, stats.Segments, stats.TotalBytes)
	}

	eng := serve.NewEngine(reg, serve.Config{
		Workers: *workers, MaxBatch: *maxBatch, Timeout: *timeout,
		CacheSize: *cacheSize, CacheTTL: *cacheTTL,
		Tools: tools, SimWorkers: *simWorkers, SimTimeout: *simTimeout,
		MaxStreamBatch: *maxStreamBatch,
		JobWorkers:     *jobWorkers, JobQueueDepth: *jobQueue, JobTimeout: *jobTimeout,
		Store:           st,
		BreakerFailures: *breakerFailures, BreakerCooldown: *breakerCooldown})
	if *cacheSize > 0 {
		fmt.Printf("verdict cache: %d entries, ttl %s (GET /v1/stats for live counters)\n",
			*cacheSize, *cacheTTL)
	} else {
		fmt.Println("verdict cache: disabled")
	}
	if tools != nil {
		fmt.Printf("hybrid analysis: POST /v1/analyze with tools %s (%d sim workers, %s budget)\n",
			strings.Join(tools.Names(), ", "), *simWorkers, *simTimeout)
		fmt.Printf("batch tier: /v1/analyze/batch and /v1/jobs (%d job workers, queue %d, %s budget)\n",
			*jobWorkers, *jobQueue, *jobTimeout)
	} else {
		fmt.Println("hybrid analysis: disabled")
	}

	srv := rest.NewServer(*addr, rest.NewHandler(reg, eng), *readHeaderTimeout)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println("shutting down...")
		// Flip readyz to draining first: load balancers stop routing here
		// while srv.Shutdown drains the requests already in flight.
		eng.StartDraining()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("mpidetectd: shutdown: %v", err)
		}
	}()

	fmt.Printf("mpidetectd listening on %s (%d models)\n", *addr, len(reg.Names()))
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("mpidetectd: %v", err)
	}
	// Shutdown ordering: stop intake (srv.Shutdown drains in-flight
	// requests), drain the engine (job queue, worker pools, write-behind
	// queues — Close returns only after every accepted persist reached
	// the store), then close the store itself.
	<-done
	eng.Close()
	if st != nil {
		if err := st.Close(); err != nil {
			log.Printf("mpidetectd: closing store: %v", err)
		}
	}
}
