// Package serve turns trained detectors into a concurrent inference
// engine: a model Registry, a batched worker-pool classification Engine
// with per-request timeouts, a content-addressed verdict cache with
// request coalescing in front of the pipeline, a streaming batch
// analyzer (AnalyzeBatch), an async job tier (SubmitJob/Job/CancelJob,
// backed by internal/jobs), and a typed event bus (internal/events)
// publishing verdict completions, cache invalidations, model reloads and
// job transitions.
//
// This package is transport-free: it never touches net/http. The
// HTTP/JSON front end lives in the sibling package serve/rest, which
// cmd/mpidetectd mounts; any other transport (gRPC, CLI, tests) can sit
// on the same engine API.
//
// The wire format for programs is the repo's textual IR (ir.Print /
// ir.Parse); each submitted program is parsed, optimised to the serving
// model's training level, and classified on the shared worker pool, so one
// oversized request cannot monopolise the server and many small requests
// interleave fairly.
//
// Caching: before a program is even parsed, the engine computes its
// canonical digest (core.DigestIR — whitespace/comment-insensitive) and
// consults the cache under the key model + digest. A hit skips the whole
// parse→optimise→embed→predict pipeline; a miss makes the request the
// flight leader for that key, and any concurrent identical program — in
// the same batch or in another client's request — coalesces onto the
// leader's single pipeline execution. Replacing a model in the Registry
// (Register or LoadFile) invalidates exactly that model's cached
// verdicts, so a retrained artifact never serves stale results.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpidetect/internal/cache"
	"mpidetect/internal/core"
	"mpidetect/internal/events"
	"mpidetect/internal/ir"
	"mpidetect/internal/jobs"
	"mpidetect/internal/mpisim"
	"mpidetect/internal/passes"
	"mpidetect/internal/resilience"
	"mpidetect/internal/store"
	"mpidetect/internal/verify"
)

// Sentinel errors mapped to HTTP statuses by the transport.
var (
	ErrUnknownModel  = errors.New("serve: unknown model")
	ErrEmptyBatch    = errors.New("serve: empty batch")
	ErrBatchTooLarge = errors.New("serve: batch too large")
	ErrTimeout       = errors.New("serve: request timed out")
	ErrCanceled      = errors.New("serve: request canceled")
)

// ctxErr classifies an expired context: a blown deadline is a timeout, any
// other cause (caller cancellation, client disconnect) is a cancel.
func ctxErr(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
	}
	return fmt.Errorf("%w: %v", ErrCanceled, ctx.Err())
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

// Registry is a concurrency-safe name -> trained detector table. Every
// write to a slot bumps that slot's generation; the serving engine folds
// the generation into cache keys so a Classify that captured a detector
// just before a reload can only ever store under the old generation —
// never under keys the reloaded model serves from.
type Registry struct {
	mu        sync.RWMutex
	models    map[string]core.Detector
	gens      map[string]uint64
	onReplace []func(name string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{models: map[string]core.Detector{}, gens: map[string]uint64{}}
}

// OnReplace installs a hook invoked (outside the registry lock) every
// time a model slot is written by Register or LoadFile. The serving
// engine uses it to invalidate the replaced model's cached verdicts.
func (r *Registry) OnReplace(fn func(name string)) {
	r.mu.Lock()
	r.onReplace = append(r.onReplace, fn)
	r.mu.Unlock()
}

// Register installs (or replaces) a detector under name.
func (r *Registry) Register(name string, d core.Detector) {
	r.mu.Lock()
	r.models[name] = d
	r.gens[name]++
	hooks := make([]func(string), len(r.onReplace))
	copy(hooks, r.onReplace)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn(name)
	}
}

// LoadFile loads a saved artifact (core.SaveDetectorFile format) and
// registers it under name.
func (r *Registry) LoadFile(name, path string) error {
	d, err := core.LoadDetectorFile(path)
	if err != nil {
		return fmt.Errorf("serve: loading model %q from %s: %w", name, path, err)
	}
	r.Register(name, d)
	return nil
}

// Get resolves a model by name.
func (r *Registry) Get(name string) (core.Detector, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.models[name]
	return d, ok
}

// getWithGen resolves a model together with its slot generation, under
// one lock acquisition, so caller-side detector and generation can never
// straddle a reload.
func (r *Registry) getWithGen(name string) (core.Detector, uint64, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.models[name]
	return d, r.gens[name], ok
}

// Generation reports the current generation of a model slot (0 when the
// name was never registered). Snapshot restores compare persisted record
// generations against this to drop verdicts from conflicting artifacts.
func (r *Registry) Generation(name string) uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gens[name]
}

// Names lists the registered model names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.models))
	for n := range r.models {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Engine.
// ---------------------------------------------------------------------------

const (
	// predictBatch caps how many queued programs one worker turn drains
	// into a single fused forward pass. Workers never wait to fill a
	// batch: an idle queue means singleton batches, a backed-up queue
	// means full ones, so batching costs no latency when the server is
	// idle and buys throughput exactly when it is loaded.
	predictBatch = 8
	// jobMaxRetained caps the finished async jobs kept pollable.
	jobMaxRetained = 256
)

// Config sizes the engine; zero values take the documented defaults.
type Config struct {
	Workers  int           // classification goroutines (default GOMAXPROCS)
	MaxBatch int           // max programs per request (default 64)
	Timeout  time.Duration // per-request budget (default 30s)

	// CacheSize is the verdict-cache capacity in entries; 0 disables the
	// cache (every program pays the full pipeline, no coalescing).
	CacheSize int
	// CacheTTL bounds a cached verdict's lifetime; 0 = no expiry.
	CacheTTL time.Duration

	// Tools enables POST /analyze: the registry of expert static/dynamic
	// verification tools fanned out next to the ML verdict. Nil disables
	// the endpoint (and the simulation pool).
	Tools *ToolRegistry
	// SimWorkers caps concurrently-running dynamic-tool simulations
	// (default 2). Dynamic runs are orders of magnitude heavier than
	// cached classify hits, so they get their own small pool and cannot
	// starve the classification workers.
	SimWorkers int
	// SimTimeout is the wall-clock budget of one simulation (default 5s).
	SimTimeout time.Duration
	// SimMaxSteps is the per-rank interpreter step budget of one
	// simulation (default verify.DefaultMaxSteps).
	SimMaxSteps int64

	// MaxStreamBatch caps a streaming AnalyzeBatch request (default
	// 1024). Streaming batches deliver results incrementally, so they may
	// be far larger than the synchronous MaxBatch.
	MaxStreamBatch int
	// BatchParallel caps the programs of one batch analyzed concurrently
	// (default Workers + SimWorkers). The per-program work still runs on
	// the shared classify and simulation pools; this only bounds how many
	// programs a single batch has in flight at once.
	BatchParallel int

	// JobWorkers is the async-job worker count (default 2); JobQueueDepth
	// bounds the accepted-but-not-running jobs (default 16; a full queue
	// is backpressure, surfaced as 429 by the transport). JobTimeout
	// bounds one job's run (default 5m). The last jobMaxRetained finished
	// jobs stay pollable.
	JobWorkers    int
	JobQueueDepth int
	JobTimeout    time.Duration

	// Store is the durable verdict tier: an opened segment store mounted
	// under the classify and tool caches as write-behind backing. Nil
	// (and nil whenever CacheSize is 0) runs memory-only. The engine
	// drains its write-behind queues on Close but does NOT close the
	// store — the owner that opened it does, after the engine.
	Store *store.Store
	// StoreQueue bounds each tier's pending write-behind persists
	// (default 1024); beyond it persists are dropped and counted.
	StoreQueue int

	// BreakerFailures is the consecutive internal-failure count that
	// trips a tool or store-tier circuit breaker (default 5);
	// BreakerCooldown is how long a tripped breaker stays open before a
	// recovery probe (default 30s). See internal/serve/resilience.go.
	BreakerFailures int
	BreakerCooldown time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.SimWorkers <= 0 {
		c.SimWorkers = 2
	}
	if c.SimTimeout <= 0 {
		c.SimTimeout = 5 * time.Second
	}
	if c.SimMaxSteps <= 0 {
		c.SimMaxSteps = verify.DefaultMaxSteps
	}
	if c.MaxStreamBatch <= 0 {
		c.MaxStreamBatch = 1024
	}
	if c.BatchParallel <= 0 {
		c.BatchParallel = c.Workers + c.SimWorkers
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.JobQueueDepth <= 0 {
		c.JobQueueDepth = 16
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	return c
}

// Program is one classification item.
type Program struct {
	Name string `json:"name,omitempty"`
	IR   string `json:"ir"`
}

// Result is the verdict for one program. Err is per-item: a program that
// fails to parse poisons neither the batch nor the request.
type Result struct {
	Name       string  `json:"name,omitempty"`
	Incorrect  bool    `json:"incorrect"`
	Label      string  `json:"label"`
	Confidence float64 `json:"confidence"`
	Err        string  `json:"error,omitempty"`
}

type job struct {
	ctx    context.Context
	det    core.Detector
	mod    *ir.Module
	idx    int
	out    chan<- outcome
	flight *cache.Flight[Result] // non-nil when this job leads a cache flight
}

type outcome struct {
	idx int
	res Result
}

// keySep joins the cache-key components (model name, registry slot
// generation, program digest); see cacheKey.
const keySep = "\x1f"

// Engine classifies programs on a fixed worker pool shared by all
// requests: each request's batch is fanned out one job per program, so
// concurrent requests interleave instead of queueing head-to-tail. With
// caching enabled, each program first consults the verdict cache and
// coalesces with any identical in-flight program across all requests.
type Engine struct {
	cfg   Config
	reg   *Registry
	jobs  chan job
	wg    sync.WaitGroup
	cache *cache.Cache[Result] // nil when disabled

	// Hybrid-analysis tier (POST /analyze): expert tools, a separate
	// concurrency-limited pool for dynamic simulations, and a dedicated
	// verdict cache keyed by tool + configuration.
	tools     *ToolRegistry
	toolCache *cache.Cache[ToolVerdict] // nil when disabled
	// progCache holds compiled simulator programs, content-addressed by
	// program text (rank- and tool-independent), so one /analyze request
	// compiles once and simulates many times.
	progCache *cache.Cache[*mpisim.Program] // nil when disabled
	simJobs   chan func()
	simWG     sync.WaitGroup

	// bus publishes engine events; jobMgr runs the async job tier.
	bus    *events.Bus
	jobMgr *jobs.Manager[VerdictEvent]

	// Durable tier (nil when Config.Store is nil): the shared segment
	// store plus one typed write-behind tier per persisted cache. The
	// compiled-program cache is deliberately NOT persisted — programs
	// hold closures, and recompiling from a durable tool verdict is
	// never needed to keep the warm path sim-free.
	st           *store.Store
	classifyTier *store.Tier[Result]
	toolTier     *store.Tier[ToolVerdict]

	requests      atomic.Int64
	programs      atomic.Int64
	pipelineExecs atomic.Int64
	parseErrors   atomic.Int64

	// Pipeline observability (see PipelineStats): parse-time EWMA, the
	// drained-batch fill histogram, and how many predictions went through
	// the fused batch pass versus a batch of one.
	avgParseNanos  atomic.Int64
	batchFill1     atomic.Int64
	batchFill2to4  atomic.Int64
	batchFill5to8  atomic.Int64
	batchFillFull  atomic.Int64
	batchedPreds   atomic.Int64
	singletonPreds atomic.Int64

	analyzeRequests atomic.Int64
	toolRuns        atomic.Int64
	simExecs        atomic.Int64
	simTimeouts     atomic.Int64
	simCompiles     atomic.Int64

	batchRequests atomic.Int64
	batchPrograms atomic.Int64

	// Resilience tier (see resilience.go): lazily-created per-tool
	// circuit breakers, the process draining flag, panic counters per
	// pooled subsystem, and the queue-wait EWMA behind admission control.
	breakerMu sync.Mutex
	breakers  map[string]*resilience.Breaker
	draining  atomic.Bool

	classifyPanics   atomic.Int64
	toolPanics       atomic.Int64
	batchPanics      atomic.Int64
	shedRequests     atomic.Int64
	degradedVerdicts atomic.Int64
	avgExecNanos     atomic.Int64
}

// NewEngine starts the worker pool over the registry. When cfg.CacheSize
// is positive the engine fronts the pipeline with a verdict cache and
// registers an OnReplace hook so reloading a model invalidates only that
// model's entries. Every model reload, cache sweep and async-job
// transition is also published on the engine's event bus.
func NewEngine(reg *Registry, cfg Config) *Engine {
	e := &Engine{cfg: cfg.withDefaults(), reg: reg, bus: events.NewBus()}
	e.breakers = map[string]*resilience.Breaker{}
	// tierOpts threads the breaker sizing into each write-behind tier and
	// surfaces its degraded-mode changes on the bus.
	tierOpts := func(ns string, genOf func(string) uint64) store.TierOptions {
		return store.TierOptions{
			Queue: e.cfg.StoreQueue, GenOf: genOf,
			BreakerFailures: e.cfg.BreakerFailures,
			BreakerCooldown: e.cfg.BreakerCooldown,
			OnModeChange: func(mode string) {
				e.bus.Publish(events.BreakerUpdated,
					BreakerUpdatedData{Scope: "store", Name: ns, To: mode})
			},
		}
	}
	if e.cfg.CacheSize > 0 {
		e.cache = cache.New[Result](cache.Config{
			Capacity: e.cfg.CacheSize, TTL: e.cfg.CacheTTL})
		if e.cfg.Store != nil {
			e.st = e.cfg.Store
			e.classifyTier = store.NewTier[Result](e.st, "classify",
				tierOpts("classify", classifyKeyGen))
			e.cache.SetBacking(e.classifyTier)
			e.st.OnCompact(func(ci store.CompactionInfo) {
				e.bus.Publish(events.StoreCompacted, ci)
			})
		}
		reg.OnReplace(func(name string) {
			n := e.cache.InvalidatePrefix(name + keySep)
			e.bus.Publish(events.CacheInvalidated,
				CacheInvalidatedData{Scope: "model", Name: name, Entries: n})
		})
	}
	reg.OnReplace(func(name string) {
		e.bus.Publish(events.ModelReloaded, ModelReloadedData{Model: name})
	})
	e.jobs = make(chan job, 2*e.cfg.Workers)
	for w := 0; w < e.cfg.Workers; w++ {
		e.wg.Add(1)
		go e.worker()
	}
	if e.cfg.Tools != nil {
		e.tools = e.cfg.Tools
		if e.cfg.CacheSize > 0 {
			e.toolCache = cache.New[ToolVerdict](cache.Config{
				Capacity: e.cfg.CacheSize, TTL: e.cfg.CacheTTL})
			if e.st != nil {
				e.toolTier = store.NewTier[ToolVerdict](e.st, "tool",
					tierOpts("tool", nil))
				e.toolCache.SetBacking(e.toolTier)
			}
			e.tools.OnReplace(func(name string) {
				n := e.toolCache.InvalidatePrefix(toolPrefix(name))
				e.bus.Publish(events.CacheInvalidated,
					CacheInvalidatedData{Scope: "tool", Name: name, Entries: n})
			})
			e.progCache = cache.New[*mpisim.Program](cache.Config{
				Capacity: e.cfg.CacheSize, TTL: e.cfg.CacheTTL})
		}
		e.simJobs = make(chan func(), 2*e.cfg.SimWorkers)
		for w := 0; w < e.cfg.SimWorkers; w++ {
			e.simWG.Add(1)
			go e.simWorker()
		}
	}
	e.jobMgr = jobs.New[VerdictEvent](jobs.Config{
		Workers:     e.cfg.JobWorkers,
		QueueDepth:  e.cfg.JobQueueDepth,
		MaxRetained: jobMaxRetained,
		Timeout:     e.cfg.JobTimeout,
		OnTransition: func(s jobs.Snapshot) {
			e.bus.Publish(events.JobUpdated, s)
		},
		OnPanic: func(id string, v any) {
			e.bus.Publish(events.FaultRecovered, FaultRecoveredData{
				Subsystem: "jobs", Detail: id, Panic: fmt.Sprint(v)})
		},
	})
	return e
}

// Close drains the pools. It must not be called concurrently with
// Classify or Analyze; the transport server is shut down first. The job
// manager closes first (cancelling live jobs, whose per-program work
// unwinds through the pools), then the pools drain. Every queued job is
// still executed (workers drain the channels), so no cache flight is
// left incomplete. Last, the write-behind tiers drain: every persist
// those completed jobs enqueued reaches the durable store before Close
// returns, so a clean shutdown loses no accepted verdict. The store
// itself stays open — its owner closes it after the engine.
func (e *Engine) Close() {
	e.jobMgr.Close()
	close(e.jobs)
	if e.simJobs != nil {
		close(e.simJobs)
	}
	e.wg.Wait()
	e.simWG.Wait()
	if e.classifyTier != nil {
		e.classifyTier.Close()
	}
	if e.toolTier != nil {
		e.toolTier.Close()
	}
}

// Bus exposes the engine's event bus for subscribers (the transport's
// GET /v1/events stream, tests).
func (e *Engine) Bus() *events.Bus { return e.bus }

// MaxBatch reports the per-request batch cap.
func (e *Engine) MaxBatch() int { return e.cfg.MaxBatch }

// CacheStats snapshots the verdict-cache counters; ok is false when the
// engine runs uncached.
func (e *Engine) CacheStats() (cache.Stats, bool) {
	if e.cache == nil {
		return cache.Stats{}, false
	}
	return e.cache.Stats(), true
}

// finish delivers a job's result to its request and, when the job leads a
// cache flight, completes the flight: success stores + broadcasts, err
// broadcasts without storing.
func (e *Engine) finish(j job, res Result, err error) {
	if j.flight != nil {
		e.cache.Complete(j.flight, res, err)
	}
	j.out <- outcome{j.idx, res}
}

// worker is one pool goroutine. Each turn takes a blocking receive,
// then greedily drains whatever else is already queued — up to
// predictBatch jobs, never waiting — and classifies the drained
// batch through one fused forward pass. An idle queue therefore costs
// nothing (a batch of one), while a backed-up queue amortises the
// per-prediction model overhead across the whole drain.
func (e *Engine) worker() {
	defer e.wg.Done()
	batch := make([]job, 0, predictBatch)
	for j := range e.jobs {
		batch = e.appendLive(batch[:0], j)
	drain:
		for len(batch) < predictBatch {
			select {
			case j2, ok := <-e.jobs:
				if !ok {
					break drain // closed: finish what we hold, then exit via range
				}
				batch = e.appendLive(batch, j2)
			default:
				break drain
			}
		}
		if len(batch) > 0 {
			e.runDrained(batch)
		}
	}
}

// appendLive applies the dead-context skip while building a batch: a
// dead context only skips work for uncoalesced jobs. A job that leads a
// flight runs to completion regardless, because followers from other,
// healthy requests are waiting on its verdict (and the stored entry
// serves every future resubmission).
func (e *Engine) appendLive(batch []job, j job) []job {
	if err := j.ctx.Err(); err != nil && j.flight == nil {
		e.finish(j, Result{Err: "canceled: " + err.Error()}, err)
		return batch
	}
	return append(batch, j)
}

// runDrained classifies one drained batch. Jobs are grouped by detector
// instance (a batch drained across a model reload, or across requests
// for different models, holds several) and each group runs fused.
func (e *Engine) runDrained(batch []job) {
	e.noteBatchFill(len(batch))
	for len(batch) > 0 {
		det := batch[0].det
		group := make([]job, 0, len(batch))
		rest := batch[:0]
		for _, j := range batch {
			if j.det == det {
				group = append(group, j)
			} else {
				rest = append(rest, j)
			}
		}
		e.runGroup(group)
		batch = rest
	}
}

// runGroup classifies jobs sharing one detector in two phases: optimise
// each member under its own panic isolation, then one fused CheckModules
// pass when more than one member survives. The lone survivor, or every
// member after a failed fused pass, is classified alone by classifyJob —
// without re-optimising — so one poisoned module fails its own request,
// not its batch neighbours.
func (e *Engine) runGroup(group []job) {
	start := time.Now()
	live := make([]job, 0, len(group))
	for _, j := range group {
		if e.optimizeJob(j) {
			live = append(live, j)
		}
	}
	if len(live) > 1 {
		mods := make([]*ir.Module, len(live))
		for i, j := range live {
			mods[i] = j.mod
		}
		if vs, err := e.checkBatch(live[0].det, mods); err == nil {
			e.batchedPreds.Add(int64(len(live)))
			for i, j := range live {
				e.finish(j, resultOf(vs[i]), nil)
			}
			live = nil
		} else {
			e.bus.Publish(events.FaultRecovered, FaultRecoveredData{
				Subsystem: "classify", Detail: "batched predict; retrying per program",
				Panic: err.Error()})
		}
	}
	for _, j := range live {
		res, err := e.classifyJob(j)
		e.finish(j, res, err)
	}
	// Admission control wants per-program drain cost: fold the batch's
	// wall time divided evenly across its members.
	e.observeExec(time.Since(start) / time.Duration(len(group)))
}

// observeParse folds one front-door parse's wall time into the pipeline
// parse EWMA (same plain load/compute/store as observeExec: a lost
// update costs one sample).
func (e *Engine) observeParse(d time.Duration) {
	const alpha = 0.3
	prev := e.avgParseNanos.Load()
	if prev == 0 {
		e.avgParseNanos.Store(int64(d))
		return
	}
	e.avgParseNanos.Store(int64(alpha*float64(d) + (1-alpha)*float64(prev)))
}

// noteBatchFill buckets one drained batch's size into the fill
// histogram ("full" means predictBatch).
func (e *Engine) noteBatchFill(n int) {
	switch {
	case n >= predictBatch:
		e.batchFillFull.Add(1)
	case n <= 1:
		e.batchFill1.Add(1)
	case n <= 4:
		e.batchFill2to4.Add(1)
	default:
		e.batchFill5to8.Add(1)
	}
}

// resultOf renders a detector verdict as a wire Result.
func resultOf(v core.Verdict) Result {
	return Result{Incorrect: v.Incorrect,
		Label: v.Label.String(), Confidence: v.Confidence}
}

// optimizeJob is phase one of the pipeline: run the optimisation passes
// for one member with panic isolation. A panicking pass fails (and
// finishes) only this member — with a structured internal error,
// broadcast to coalesced followers and never cached — instead of killing
// a pool worker; the return reports whether it survived into the predict
// phase.
func (e *Engine) optimizeJob(j job) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			e.classifyPanics.Add(1)
			e.bus.Publish(events.FaultRecovered, FaultRecoveredData{
				Subsystem: "classify", Panic: fmt.Sprint(r)})
			e.finish(j, Result{Err: "internal: classify panic: " + fmt.Sprint(r)},
				fmt.Errorf("serve: classify panic: %v", r))
		}
	}()
	e.pipelineExecs.Add(1)
	passes.Optimize(j.mod, j.det.Opt())
	return true
}

// checkBatch runs the fused forward pass with panic containment; a
// panic converts to an error so runGroup can fall back per member.
func (e *Engine) checkBatch(det core.Detector, mods []*ir.Module) (vs []core.Verdict, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: batch classify panic: %v", r)
		}
	}()
	return det.CheckModules(mods)
}

// classifyJob predicts one already-optimised member as a batch of one,
// with per-member panic isolation.
func (e *Engine) classifyJob(j job) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			e.classifyPanics.Add(1)
			err = fmt.Errorf("serve: classify panic: %v", r)
			res = Result{Err: "internal: classify panic: " + fmt.Sprint(r)}
			e.bus.Publish(events.FaultRecovered, FaultRecoveredData{
				Subsystem: "classify", Panic: fmt.Sprint(r)})
		}
	}()
	e.singletonPreds.Add(1)
	vs, err := j.det.CheckModules([]*ir.Module{j.mod})
	if err != nil {
		return Result{Err: err.Error()}, err
	}
	return resultOf(vs[0]), nil
}

// flightWait is one batch item parked on another request's (or an earlier
// batch item's) in-flight computation.
type flightWait struct {
	idx int
	f   *cache.Flight[Result]
}

// Classify runs a batch of programs against a registered model. The
// effective budget is min(caller deadline, engine timeout): the server's
// per-request budget always applies, and a caller with a sooner deadline
// gets the sooner one.
func (e *Engine) Classify(ctx context.Context, model string, progs []Program) ([]Result, error) {
	if len(progs) == 0 {
		return nil, ErrEmptyBatch
	}
	if len(progs) > e.cfg.MaxBatch {
		return nil, fmt.Errorf("%w: %d programs (max %d)", ErrBatchTooLarge, len(progs), e.cfg.MaxBatch)
	}
	det, gen, ok := e.reg.getWithGen(model)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, model)
	}
	// context.WithTimeout never extends an earlier parent deadline, so a
	// client cannot bypass the server's budget by sending a distant
	// deadline of its own.
	ctx, cancel := context.WithTimeout(ctx, e.cfg.Timeout)
	defer cancel()
	// Admission control: shed now if the queue's observed drain rate says
	// this request would expire while parked behind it.
	dl, hasDL := ctx.Deadline()
	if err := e.admit(dl, hasDL); err != nil {
		return nil, err
	}
	e.requests.Add(1)
	e.programs.Add(int64(len(progs)))

	results := make([]Result, len(progs))
	// Buffered to the batch size so workers never block on delivery even
	// after a timed-out Classify has returned.
	out := make(chan outcome, len(progs))
	pending := 0
	var waits []flightWait
	for i, p := range progs {
		// Cache front: digest the raw text (no parse needed), then either
		// serve the hit, park on an existing flight, or lead a new one.
		// The registry generation in the key pins this request's entries
		// to the detector instance captured above: a reload concurrent
		// with this Classify bumps the generation, so whatever this
		// request computes and stores is unreachable from the new model.
		var flight *cache.Flight[Result]
		if e.cache != nil {
			key := cacheKey(model, gen, core.DigestIR(det, p.IR))
			v, f, st := e.cache.Join(key)
			switch st {
			case cache.Hit:
				results[i] = v
				continue
			case cache.Wait:
				waits = append(waits, flightWait{i, f})
				continue
			}
			flight = f // cache.Lead: this item executes for everyone waiting
		}

		pstart := time.Now()
		m, err := ir.Parse(p.IR)
		e.observeParse(time.Since(pstart))
		if err != nil {
			e.parseErrors.Add(1)
			results[i].Err = "parse: " + err.Error()
			if flight != nil {
				// Broadcast the parse failure to coalesced followers; it is
				// never cached, so a corrected resubmission recomputes.
				e.cache.Complete(flight, Result{}, fmt.Errorf("parse: %w", err))
			}
			continue
		}
		select {
		case e.jobs <- job{ctx: ctx, det: det, mod: m, idx: i, out: out, flight: flight}:
			pending++
		case <-ctx.Done():
			if flight != nil {
				e.cache.Complete(flight, Result{}, ctxErr(ctx))
			}
			return nil, ctxErr(ctx)
		}
	}
	collect := func() error {
		for pending > 0 {
			select {
			case o := <-out:
				results[o.idx] = o.res
				pending--
			case <-ctx.Done():
				// Enqueued jobs are worker-owned: workers run led flights to
				// completion even under a dead context, so followers never
				// hang and never inherit this request's cancellation.
				return ctxErr(ctx)
			}
		}
		return nil
	}
	if err := collect(); err != nil {
		return nil, err
	}
	var retry []int
	for _, w := range waits {
		select {
		case <-w.f.Done():
			v, err := w.f.Result()
			switch {
			case err == nil:
				results[w.idx] = v
			case isCancellation(err):
				// The flight's leader died before its job was enqueued (the
				// only path left that cancels a flight). That request's
				// deadline says nothing about ours: re-run the item on our
				// own budget, uncoalesced.
				retry = append(retry, w.idx)
			default:
				results[w.idx] = Result{Err: err.Error()}
			}
		case <-ctx.Done():
			return nil, ctxErr(ctx)
		}
	}
	for _, i := range retry {
		pstart := time.Now()
		m, err := ir.Parse(progs[i].IR)
		e.observeParse(time.Since(pstart))
		if err != nil {
			e.parseErrors.Add(1)
			results[i] = Result{Err: "parse: " + err.Error()}
			continue
		}
		select {
		case e.jobs <- job{ctx: ctx, det: det, mod: m, idx: i, out: out}:
			pending++
		case <-ctx.Done():
			return nil, ctxErr(ctx)
		}
	}
	if err := collect(); err != nil {
		return nil, err
	}
	// Names are per-request, never part of a cached or shared Result:
	// stamp them once, after every merge path has run.
	for i := range results {
		results[i].Name = progs[i].Name
	}
	return results, nil
}

// cacheKey namespaces a program digest by model slot and generation; the
// model prefix (everything before the digest) is what per-model
// invalidation sweeps on, generations included.
func cacheKey(model string, gen uint64, digest string) string {
	return model + keySep + strconv.FormatUint(gen, 36) + keySep + digest
}

// isCancellation reports whether a flight failed because of some
// request's expired context rather than a real pipeline error.
func isCancellation(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrCanceled) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ---------------------------------------------------------------------------
// Stats.
// ---------------------------------------------------------------------------

// EngineStats is the engine half of GET /stats.
type EngineStats struct {
	Requests      int64 `json:"requests"`
	Programs      int64 `json:"programs"`
	PipelineExecs int64 `json:"pipeline_execs"`
	ParseErrors   int64 `json:"parse_errors"`
	Workers       int   `json:"workers"`
	MaxBatch      int   `json:"max_batch"`
}

// PipelineStats is the cold-path half of GET /stats: how the parse →
// optimise → predict pipeline is actually behaving. AvgParseNanos is an
// EWMA of front-door ir.Parse wall time. The BatchFill counters
// histogram the sizes of worker-drained batches (1 / 2–4 / 5–8 / full,
// where full is predictBatch) — all-singleton fills mean
// the queue never backs up and batching is idle, full fills mean the
// fused pass is carrying the load. BatchedPredictions counts programs
// classified through a fused CheckModules pass of two or more;
// SingletonPredictions counts programs classified as a batch of one (a
// lone drained program, or the per-member fallback after a failed fused
// pass).
type PipelineStats struct {
	PredictBatch         int   `json:"predict_batch"`
	AvgParseNanos        int64 `json:"avg_parse_ns"`
	BatchFill1           int64 `json:"batch_fill_1"`
	BatchFill2to4        int64 `json:"batch_fill_2_4"`
	BatchFill5to8        int64 `json:"batch_fill_5_8"`
	BatchFillFull        int64 `json:"batch_fill_full"`
	BatchedPredictions   int64 `json:"batched_predictions"`
	SingletonPredictions int64 `json:"singleton_predictions"`
}

// AnalyzeStats is the hybrid-analysis half of GET /stats. SimExecs
// counts actual simulator executions — one per cold program, however
// many dynamic tools read the run, and none for a warm /analyze repeat,
// which is the observable cache contract of the endpoint. ToolRuns
// counts tool executions; a cache hit or a tool its open breaker holds
// out executes nothing.
// SimCompiles counts real compilations of a simulator program; one
// request fanning a program to several dynamic tools compiles at most
// once, and warm repeats not at all (the program-cache hit counters in
// ProgCache track the skips).
type AnalyzeStats struct {
	Requests    int64    `json:"requests"`
	ToolRuns    int64    `json:"tool_runs"`
	SimExecs    int64    `json:"sim_execs"`
	SimTimeouts int64    `json:"sim_timeouts"`
	SimCompiles int64    `json:"sim_compiles"`
	SimWorkers  int      `json:"sim_workers"`
	Tools       []string `json:"tools"`

	// The streaming tier: batch requests accepted and programs streamed.
	// Per-program work rides the same caches and pools as the sync path,
	// so the counters above (and sim_execs in particular) move — or stay
	// put, on warm repeats — identically for both.
	BatchRequests int64 `json:"batch_requests"`
	BatchPrograms int64 `json:"batch_programs"`
}

// StatsSnapshot is the GET /stats body: live engine counters plus, when
// enabled, the verdict-cache, hybrid-analysis, and tool-cache counters,
// the async-job tier, and the event bus.
type StatsSnapshot struct {
	Engine     EngineStats      `json:"engine"`
	Pipeline   PipelineStats    `json:"pipeline"`
	Cache      *cache.Stats     `json:"cache,omitempty"`
	Analyze    *AnalyzeStats    `json:"analyze,omitempty"`
	ToolCache  *cache.Stats     `json:"tool_cache,omitempty"`
	ProgCache  *cache.Stats     `json:"prog_cache,omitempty"`
	Jobs       *jobs.Stats      `json:"jobs,omitempty"`
	Events     *events.Stats    `json:"events,omitempty"`
	Store      *StoreStats      `json:"store,omitempty"`
	Resilience *ResilienceStats `json:"resilience"`
	Models     int              `json:"models"`
}

// Stats snapshots the engine (and cache) counters.
func (e *Engine) Stats() StatsSnapshot {
	s := StatsSnapshot{
		Engine: EngineStats{
			Requests:      e.requests.Load(),
			Programs:      e.programs.Load(),
			PipelineExecs: e.pipelineExecs.Load(),
			ParseErrors:   e.parseErrors.Load(),
			Workers:       e.cfg.Workers,
			MaxBatch:      e.cfg.MaxBatch,
		},
		Pipeline: PipelineStats{
			PredictBatch:         predictBatch,
			AvgParseNanos:        e.avgParseNanos.Load(),
			BatchFill1:           e.batchFill1.Load(),
			BatchFill2to4:        e.batchFill2to4.Load(),
			BatchFill5to8:        e.batchFill5to8.Load(),
			BatchFillFull:        e.batchFillFull.Load(),
			BatchedPredictions:   e.batchedPreds.Load(),
			SingletonPredictions: e.singletonPreds.Load(),
		},
		Models: len(e.reg.Names()),
	}
	if cs, ok := e.CacheStats(); ok {
		s.Cache = &cs
	}
	if e.tools != nil {
		s.Analyze = &AnalyzeStats{
			Requests:      e.analyzeRequests.Load(),
			ToolRuns:      e.toolRuns.Load(),
			SimExecs:      e.simExecs.Load(),
			SimTimeouts:   e.simTimeouts.Load(),
			SimCompiles:   e.simCompiles.Load(),
			SimWorkers:    e.cfg.SimWorkers,
			Tools:         e.tools.Names(),
			BatchRequests: e.batchRequests.Load(),
			BatchPrograms: e.batchPrograms.Load(),
		}
		if e.toolCache != nil {
			ts := e.toolCache.Stats()
			s.ToolCache = &ts
		}
		if e.progCache != nil {
			ps := e.progCache.Stats()
			s.ProgCache = &ps
		}
	}
	js := e.jobMgr.Stats()
	s.Jobs = &js
	es := e.bus.Stats()
	s.Events = &es
	if ss, ok := e.StoreStats(); ok {
		s.Store = &ss
	}
	rs := e.resilienceStats()
	s.Resilience = &rs
	return s
}
