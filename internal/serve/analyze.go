// The hybrid static+dynamic analysis tier (POST /analyze): one program
// goes to the registered ML detector plus a selection of expert
// verification tools — the PARCOACH/MPI-Checker-like static analyses and
// the ITAC/MUST-like dynamic checkers of the paper's Table III — and the
// response carries every per-tool verdict plus a combined ensemble
// verdict.
//
// A request ingests its program once: one normalising pass yields both
// the ML cache digest and the tool-cache digest, and the program parses
// at most once. The tools run first, in order, on the raw module; then
// the ML leg, on the same goroutine, hands that module to the classify
// worker, which runs -Os on it in place.
//
// Dynamic tools read a run of the program on the runtime simulator,
// which is orders of magnitude heavier than a cached classification. A
// request compiles and runs the program at most once, on its own
// goroutine, whatever its number of dynamic tools: the run is
// deterministic, and each dynamic tool interprets the same Result
// (verify.ProgramChecker.Interpret). At most Config.SimWorkers runs
// execute at once across the engine, each under a per-simulation
// wall-clock budget (Config.SimTimeout) and the caller's request
// deadline: cancelling the request aborts an in-flight simulation
// cooperatively. Tool verdicts are cached in their own
// content-addressed cache under digests keyed by tool + configuration
// (core.DigestIRKeyed), with per-tool prefix invalidation; a warm repeat
// of the same program and tool set costs zero simulator executions.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"mpidetect/internal/cache"
	"mpidetect/internal/core"
	"mpidetect/internal/events"
	"mpidetect/internal/fault"
	"mpidetect/internal/ir"
	"mpidetect/internal/mpisim"
	"mpidetect/internal/verify"
)

// lazyModule parses a program's textual IR at most once, on first
// demand. The analyze path only needs the module when some verdict
// actually has to be computed — a fully warm request (every tool and
// the ML verdict served from their caches) never parses at all.
//
// It also holds the request's compiled program and its one simulation,
// both resolved on first demand by a dynamic tool. A request's tools and
// then its ML leg run in order on its own goroutine (analyzeProgram), so
// the parse, prog and sim need no lock: one parse, one compile and one
// run serve them all.
type lazyModule struct {
	src string
	// The request's two cache digests, computed in one pass; empty when
	// the engine runs uncached.
	mlDigest, toolDigest string
	mod                  *ir.Module
	err                  error
	prog                 *mpisim.Program
	sim                  *simRun
}

func (lm *lazyModule) get(e *Engine) (*ir.Module, error) {
	if lm.mod == nil && lm.err == nil {
		lm.mod, lm.err = e.parse(lm.src)
	}
	return lm.mod, lm.err
}

// take hands the module to the ML leg's classify job, parsing it now if
// no tool needed it; the job runs -Os on it in place and releases it.
// The compiled program points into the module, so take must come after
// the request's last tool.
func (lm *lazyModule) take(e *Engine) (*ir.Module, error) {
	m, err := lm.get(e)
	lm.mod, lm.prog = nil, nil
	return m, err
}

// release ends the module's life at the end of the request, unless the
// ML leg took it.
func (lm *lazyModule) release() {
	if lm.mod != nil {
		lm.mod.Release()
	}
}

// Sentinel errors of the /analyze path, mapped to HTTP statuses by the
// handler.
var (
	ErrAnalysisDisabled = errors.New("serve: no analysis tools configured")
	ErrUnknownTool      = errors.New("serve: unknown tool")
	ErrEmptyProgram     = errors.New("serve: empty program")
)

// errWallTimeout completes a flight whose simulation ran out of wall
// clock: the verdict is broadcast to coalesced followers (it is
// conclusive for their shared request window) but never stored — unlike
// the deterministic step budget, wall-clock exhaustion depends on host
// load, and caching it would serve a transient stall as the program's
// verdict until TTL expiry.
var errWallTimeout = errors.New("serve: simulation wall budget exceeded")

// maxSimRanks caps the per-request rank count so one request cannot ask
// the simulator for an arbitrarily wide world.
const maxSimRanks = 16

// ---------------------------------------------------------------------------
// Tool registry.
// ---------------------------------------------------------------------------

type registeredTool struct {
	tool    verify.ModuleChecker
	dynamic bool
}

// ToolRegistry is a concurrency-safe name -> expert tool table, the
// analysis-tier sibling of the model Registry. Tools marked dynamic
// read the request's one run of the program on the runtime simulator,
// which holds one of the engine's Config.SimWorkers slots while it runs.
type ToolRegistry struct {
	mu        sync.RWMutex
	tools     map[string]registeredTool
	onReplace []func(name string)
}

// NewToolRegistry returns an empty registry.
func NewToolRegistry() *ToolRegistry {
	return &ToolRegistry{tools: map[string]registeredTool{}}
}

// DefaultTools returns a registry holding the four expert tools of the
// paper's comparison under their serving names.
func DefaultTools() *ToolRegistry {
	tr := NewToolRegistry()
	tr.Register("parcoach", verify.PARCOACH{}, false)
	tr.Register("mpi-checker", verify.MPIChecker{}, false)
	tr.Register("itac", verify.ITAC{}, true)
	tr.Register("must", verify.MUST{}, true)
	return tr
}

// Register installs (or replaces) a tool under name. dynamic marks tools
// that execute the program on the simulator; such a tool must implement
// verify.ProgramChecker, since it reads the request's shared simulation
// (Register panics otherwise). Replacing a tool fires the OnReplace
// hooks (the engine uses them to sweep that tool's cached verdicts).
func (tr *ToolRegistry) Register(name string, t verify.ModuleChecker, dynamic bool) {
	if _, ok := t.(verify.ProgramChecker); dynamic && !ok {
		panic("serve: dynamic tool " + name + " does not implement verify.ProgramChecker")
	}
	// Every tool gets a named fault point ("tool.<name>") so tests and
	// the fault admin endpoint can fail or panic exactly one tool.
	fault.Register("tool." + name)
	tr.mu.Lock()
	tr.tools[name] = registeredTool{tool: t, dynamic: dynamic}
	hooks := make([]func(string), len(tr.onReplace))
	copy(hooks, tr.onReplace)
	tr.mu.Unlock()
	for _, fn := range hooks {
		fn(name)
	}
}

// OnReplace installs a hook invoked (outside the registry lock) every
// time a tool slot is written by Register.
func (tr *ToolRegistry) OnReplace(fn func(name string)) {
	tr.mu.Lock()
	tr.onReplace = append(tr.onReplace, fn)
	tr.mu.Unlock()
}

// Get resolves a registered tool.
func (tr *ToolRegistry) Get(name string) (t verify.ModuleChecker, dynamic, ok bool) {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	rt, ok := tr.tools[name]
	return rt.tool, rt.dynamic, ok
}

// Names lists the registered tool names, sorted.
func (tr *ToolRegistry) Names() []string {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	out := make([]string, 0, len(tr.tools))
	for n := range tr.tools {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Wire types.
// ---------------------------------------------------------------------------

// AnalyzeRequest is the POST /analyze body. Tools selects a subset of
// the registered tools by name (empty = all); Ranks sets the simulated
// world size for dynamic tools (default 2, capped at maxSimRanks).
type AnalyzeRequest struct {
	Model   string   `json:"model"`
	Tools   []string `json:"tools,omitempty"`
	Ranks   int      `json:"ranks,omitempty"`
	Program Program  `json:"program"`
}

// ToolVerdict is one expert tool's outcome on the analyzed program.
// Verdict is one of "clean", "flagged", "timeout", "canceled",
// "degraded" or "error"; only "clean" and "flagged" verdicts vote in
// the ensemble. "degraded" means the tool's circuit breaker kept it out
// of this request entirely. Internal marks error verdicts caused by the
// tool itself (a panic, an injected fault) rather than by the analyzed
// program — these feed the tool's breaker and are never cached.
type ToolVerdict struct {
	Tool     string `json:"tool"`
	Dynamic  bool   `json:"dynamic"`
	Verdict  string `json:"verdict"`
	Flagged  bool   `json:"flagged"`
	Reason   string `json:"reason,omitempty"`
	Cached   bool   `json:"cached,omitempty"`
	Err      string `json:"error,omitempty"`
	Internal bool   `json:"internal,omitempty"`

	// wallTO marks a timeout caused by the wall-clock budget; it keeps
	// the verdict out of the cache (see errWallTimeout).
	wallTO bool
}

// Ensemble combines the ML verdict with every conclusive tool verdict by
// simple majority: each conclusive voter (the ML detector unless it
// errored, plus every tool that answered clean or flagged) casts one
// vote, and the program is reported incorrect when flags hold at least
// half the votes — ties lean incorrect, since a detector that has seen a
// concrete violation should not be outvoted into silence by a tie.
// Agreement is the majority fraction.
type Ensemble struct {
	Incorrect bool    `json:"incorrect"`
	Flags     int     `json:"flags"`
	Voters    int     `json:"voters"`
	Agreement float64 `json:"agreement"`
	// Degraded marks an ensemble that ran without some requested tool —
	// a breaker held it out, or it failed internally — so the verdict
	// rests on fewer voters than the caller asked for.
	Degraded bool `json:"degraded,omitempty"`
}

// AnalyzeResponse is the POST /analyze reply.
type AnalyzeResponse struct {
	Model    string        `json:"model"`
	Name     string        `json:"name,omitempty"`
	ML       Result        `json:"ml"`
	Tools    []ToolVerdict `json:"tools"`
	Ensemble Ensemble      `json:"ensemble"`
}

// ---------------------------------------------------------------------------
// Engine: the analysis path.
// ---------------------------------------------------------------------------

// selectedTool is one resolved tool of a request.
type selectedTool struct {
	name    string
	dynamic bool
	tool    verify.ModuleChecker
}

// toolPrefix is the cache-key prefix of one tool's entries in the tool
// cache; the registry's OnReplace hook sweeps it.
func toolPrefix(name string) string { return name + keySep }

// compiledProgram compiles the request's program for the simulator
// once and keeps it on lm for the request's other dynamic tools.
// Compilation errors are parse errors (broadcast to coalesced callers,
// never cached).
func (e *Engine) compiledProgram(lm *lazyModule) (*mpisim.Program, error) {
	if lm.prog == nil {
		mod, err := lm.get(e)
		if err != nil {
			return nil, err
		}
		atomic.AddInt64(&e.stats.analyze.SimCompiles, 1)
		lm.prog = mpisim.Compile(mod)
	}
	return lm.prog, nil
}

// simRun is the outcome of a request's one simulation: the Result every
// dynamic tool interprets, or the internal failure (an armed sim.run
// fault, a recovered panic) that fails them all.
type simRun struct {
	res      *mpisim.Result
	internal string
}

// canceledRun stands in for a simulation the request's context killed
// before it started: every tool reads it as canceled. Tools only
// read a Result, so one shared value serves every request.
var canceledRun = &simRun{res: &mpisim.Result{Canceled: true}}

// simulate runs prog once on the calling goroutine, holding one of the
// engine's SimWorkers slots for the run. A request whose context dies
// while it waits for a slot, or before it starts, skips the run; a
// running simulation observes the same context and aborts cooperatively.
// The sim.run fault point fires here, once per simulation, and a panic in
// the run is recovered into an internal failure of the request's dynamic
// tools.
func (e *Engine) simulate(ctx context.Context, prog *mpisim.Program, ranks int) (run *simRun) {
	select {
	case e.simSlots <- struct{}{}:
	case <-ctx.Done():
		return canceledRun
	}
	defer func() { <-e.simSlots }()
	if ctx.Err() != nil {
		return canceledRun
	}
	defer func() {
		if r := recover(); r != nil {
			atomic.AddInt64(&e.stats.resilience.ToolPanics, 1)
			run = &simRun{internal: fmt.Sprintf("simulation panic: %v", r)}
			e.bus.Publish(events.FaultRecovered, FaultRecoveredData{
				Subsystem: "tool", Detail: "simulation", Panic: fmt.Sprint(r)})
		}
	}()
	if err := fault.Inject(FaultSimRun); err != nil {
		return &simRun{internal: err.Error()}
	}
	atomic.AddInt64(&e.stats.analyze.SimExecs, 1)
	return &simRun{res: prog.RunCtx(ctx, mpisim.Config{Ranks: ranks,
		MaxSteps: e.cfg.SimMaxSteps, WallBudget: e.cfg.SimTimeout})}
}

// toolKey addresses one (tool, configuration, program) verdict: the
// key carries the tool name, every configuration axis that can change
// the verdict, and the program's canonical digest. The digest is
// computed once per request (analyzeProgram) and shared by every tool
// key, so the hashing cost does not scale with the tool count. The key
// is built in one allocation, sized for the widest configuration.
func toolKey(name string, ranks int, steps int64, digest string) string {
	const cfgMax = len("ranks=|steps=") + 2*20 // two signed 64-bit decimals
	var k strings.Builder
	k.Grow(len(name) + 2*len(keySep) + cfgMax + len(digest))
	var num [20]byte
	k.WriteString(name)
	k.WriteString(keySep + "ranks=")
	k.Write(strconv.AppendInt(num[:0], int64(ranks), 10))
	k.WriteString("|steps=")
	k.Write(strconv.AppendInt(num[:0], steps, 10))
	k.WriteString(keySep)
	k.WriteString(digest)
	return k.String()
}

// toolIdent is the analysis identity of the tool-cache digest
// (core.DigestIRKeyed); a change orphans every stored tool verdict.
const toolIdent = "analyze"

// resolveTools maps requested tool names to registered tools; an empty
// request selects every registered tool, sorted by name.
func (e *Engine) resolveTools(names []string) ([]selectedTool, error) {
	if len(names) == 0 {
		names = e.tools.Names()
	}
	out := make([]selectedTool, 0, len(names))
	for _, name := range names {
		t, dynamic, ok := e.tools.Get(name)
		if !ok {
			return nil, fmt.Errorf("%w: %q (have %s)", ErrUnknownTool, name,
				strings.Join(e.tools.Names(), ", "))
		}
		out = append(out, selectedTool{name: name, dynamic: dynamic, tool: t})
	}
	return out, nil
}

// Analyze runs one program through the registered ML detector and the
// selected expert tools and combines their verdicts. The tools run
// first, in order on the calling goroutine, the dynamic ones reading one
// simulation under the request deadline and the engine's per-simulation
// budgets; then the ML verdict rides the ordinary classify path (same
// admission, worker pool, cache and coalescing). The request as a whole
// is subject to the same min(caller deadline, engine timeout) budget as
// Classify.
func (e *Engine) Analyze(ctx context.Context, req AnalyzeRequest) (*AnalyzeResponse, error) {
	if e.tools == nil {
		return nil, ErrAnalysisDisabled
	}
	if _, ok := e.reg.Get(req.Model); !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, req.Model)
	}
	selected, err := e.resolveTools(req.Tools)
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&e.stats.analyze.Requests, 1)
	return e.analyzeProgram(ctx, req.Model, selected, clampRanks(req.Ranks), req.Program)
}

// clampRanks maps a requested world size into [2, maxSimRanks].
func clampRanks(ranks int) int {
	if ranks <= 0 {
		return 2
	}
	if ranks > maxSimRanks {
		return maxSimRanks
	}
	return ranks
}

// analyzeProgram runs the ML detector and the resolved tools on one
// program under its own min(caller deadline, engine timeout) budget —
// the shared core of Analyze and AnalyzeBatch (each program of a batch
// gets this full per-program budget, not a share of one). Admission
// comes first, so a shed request costs no parse and no simulation. One
// normalising pass digests the program for both caches. The tools run
// in order on this goroutine, then the ML leg, which hands the module
// they parsed to its classify job. The finished verdict is published on
// the event bus.
func (e *Engine) analyzeProgram(ctx context.Context, model string, selected []selectedTool, ranks int, prog Program) (*AnalyzeResponse, error) {
	if strings.TrimSpace(prog.IR) == "" {
		return nil, ErrEmptyProgram
	}
	det, gen, ok := e.reg.getWithGen(model)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, model)
	}
	ctx, cancel := context.WithTimeout(ctx, e.cfg.Timeout)
	defer cancel()
	dl, hasDL := ctx.Deadline()
	if err := e.admit(dl, hasDL); err != nil {
		return nil, err
	}

	// The module parses lazily, at most once, and only if some tool
	// verdict or the ML verdict misses its cache. The first dynamic tool
	// that misses its verdict cache runs the request's simulation, and the
	// rest interpret the same run.
	lm := &lazyModule{src: prog.IR}
	defer lm.release()
	if e.toolCache != nil {
		// Both caches exist exactly when CacheSize > 0; without them the
		// digests would be dead work on the request path.
		lm.mlDigest, lm.toolDigest = core.DigestIRAndKeyed(det, toolIdent, prog.IR)
	}
	verdicts := make([]ToolVerdict, len(selected))
	for i, st := range selected {
		verdicts[i] = e.runTool(ctx, st, lm, ranks)
	}
	ml, err := e.classifyIngested(ctx, det, gen, model, prog, lm)
	if err != nil {
		return nil, err
	}
	resp := &AnalyzeResponse{Model: model, Name: prog.Name, ML: ml, Tools: verdicts}
	resp.Ensemble = ensembleOf(resp.ML, verdicts)
	e.bus.Publish(events.VerdictCompleted, VerdictCompletedData{
		Model: model, Name: prog.Name, Incorrect: resp.Ensemble.Incorrect,
		Flags: resp.Ensemble.Flags, Voters: resp.Ensemble.Voters,
	})
	return resp, nil
}

// classifyIngested is the ML leg of an analyze request: the classify
// path for its one program under the digest and module the request
// already holds. Pipeline panics are isolated inside the worker pool;
// this recover guards the leg itself, so a panic here fails the request
// instead of the process.
func (e *Engine) classifyIngested(ctx context.Context, det core.Detector, gen uint64, model string, prog Program, lm *lazyModule) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			atomic.AddInt64(&e.stats.resilience.ClassifyPanics, 1)
			e.bus.Publish(events.FaultRecovered, FaultRecoveredData{
				Subsystem: "classify", Panic: fmt.Sprint(r)})
			err = fmt.Errorf("serve: classify panic: %v", r)
		}
	}()
	rs, err := e.classify(ctx, det, gen, model, []Program{prog}, lm)
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// runTool produces one expert verdict, consulting the tool cache first:
// a hit costs no execution, concurrent identical (tool, config, program)
// analyses coalesce onto one leader, and a flight aborted by its
// leader's dead deadline is retried by each waiter on its own budget —
// the same follower policy as Classify.
func (e *Engine) runTool(ctx context.Context, st selectedTool, lm *lazyModule, ranks int) ToolVerdict {
	b := e.toolBreaker(st.name)
	if e.toolCache == nil {
		if !b.Allow() {
			atomic.AddInt64(&e.stats.resilience.DegradedVerdicts, 1)
			return degradedToolVerdict(st)
		}
		v := e.execTool(ctx, st, lm, ranks, nil)
		recordToolOutcome(b, v)
		return v
	}
	// Static analyses are configuration-independent: keying them with a
	// constant config segment gives one entry per program instead of one
	// per requested rank count.
	keyRanks, keySteps := ranks, e.cfg.SimMaxSteps
	if !st.dynamic {
		keyRanks, keySteps = 0, 0
	}
	key := toolKey(st.name, keyRanks, keySteps, lm.toolDigest)
	for {
		v, f, state := e.toolCache.Join(key)
		switch state {
		case cache.Hit:
			v.Cached = true
			return v
		case cache.Wait:
			select {
			case <-f.Done():
				v, err := f.Result()
				switch {
				case err == nil:
					return v
				case errors.Is(err, errWallTimeout):
					// Conclusive for this request window, just uncached.
					return v
				case errors.Is(err, errBreakerOpen):
					// The leader was refused by the tool's open breaker; the
					// whole coalesced group degrades with it.
					atomic.AddInt64(&e.stats.resilience.DegradedVerdicts, 1)
					return v
				case errors.Is(err, errToolInternal):
					// The leader's tool failed internally (panic, injected
					// fault): conclusive for this window, never cached.
					return v
				case isCancellation(err):
					// The leader's request died; its deadline says nothing
					// about ours — run the tool on our own budget.
					continue
				default:
					return ToolVerdict{Tool: st.name, Dynamic: st.dynamic,
						Verdict: "error", Err: err.Error()}
				}
			case <-ctx.Done():
				return canceledToolVerdict(st)
			}
		case cache.Lead:
			// Cached verdicts above serve even while the breaker is open —
			// only fresh executions are gated.
			if !b.Allow() {
				atomic.AddInt64(&e.stats.resilience.DegradedVerdicts, 1)
				v := degradedToolVerdict(st)
				e.toolCache.Complete(f, v, errBreakerOpen)
				return v
			}
			v := e.execTool(ctx, st, lm, ranks, f)
			recordToolOutcome(b, v)
			return v
		}
	}
}

// execTool executes one tool, leading flight f when non-nil. The
// program parses (and, for dynamic tools, compiles) on demand here — a
// cache hit in runTool never reaches this point.
func (e *Engine) execTool(ctx context.Context, st selectedTool, lm *lazyModule, ranks int, f *cache.Flight[ToolVerdict]) ToolVerdict {
	var prog *mpisim.Program
	var perr error
	if st.dynamic {
		prog, perr = e.compiledProgram(lm)
	} else {
		_, perr = lm.get(e)
	}
	if perr != nil {
		return e.parseErrVerdict(st, perr, f)
	}
	v := e.invokeTool(ctx, st, lm, prog, ranks)
	e.completeTool(f, v, ctx)
	return v
}

// completeTool finishes a led flight. Conclusive verdicts — including
// deterministic step-budget timeouts and crashes, which are properties
// of the program under this configuration — are stored; a cancellation
// is broadcast but never cached, so followers retry and future requests
// recompute; a wall-clock timeout is broadcast with its verdict but
// never cached (errWallTimeout).
func (e *Engine) completeTool(f *cache.Flight[ToolVerdict], v ToolVerdict, ctx context.Context) {
	if f == nil {
		return
	}
	switch {
	case v.Verdict == "canceled":
		e.toolCache.Complete(f, ToolVerdict{}, ctxErr(ctx))
	case v.Internal:
		// Internal failures (panics, injected faults) are the tool's, not
		// the program's: broadcast so the coalesced group shares the
		// outcome, never cached so a recovered tool serves real verdicts
		// and a disarmed fault stops echoing immediately.
		e.toolCache.Complete(f, v, errToolInternal)
	case v.wallTO:
		e.toolCache.Complete(f, v, errWallTimeout)
	default:
		e.toolCache.Complete(f, v, nil)
	}
}

// parseErrVerdict reports a program that failed to parse; the failure
// is broadcast to coalesced followers but never cached, so a corrected
// resubmission recomputes.
func (e *Engine) parseErrVerdict(st selectedTool, perr error, f *cache.Flight[ToolVerdict]) ToolVerdict {
	v := ToolVerdict{Tool: st.name, Dynamic: st.dynamic,
		Verdict: "error", Err: "parse: " + perr.Error()}
	if f != nil {
		e.toolCache.Complete(f, ToolVerdict{}, fmt.Errorf("parse: %w", perr))
	}
	return v
}

// invokeTool runs the tool synchronously and maps its verdict: a
// static tool analyzes the module, a dynamic tool interprets the
// request's simulation, which the first dynamic tool to get here starts.
// The tool's own fault point fires first, so a failed tool never
// triggers a simulation. The call is panic-isolated: a panicking tool
// (or an armed panic fault) becomes an internal error verdict that feeds
// the tool's breaker instead of killing the request.
func (e *Engine) invokeTool(ctx context.Context, st selectedTool, lm *lazyModule, prog *mpisim.Program, ranks int) (out ToolVerdict) {
	defer func() {
		if r := recover(); r != nil {
			atomic.AddInt64(&e.stats.resilience.ToolPanics, 1)
			out = internalToolVerdict(st, fmt.Sprintf("tool panic: %v", r))
			e.bus.Publish(events.FaultRecovered, FaultRecoveredData{
				Subsystem: "tool", Detail: st.name, Panic: fmt.Sprint(r)})
		}
	}()
	atomic.AddInt64(&e.stats.analyze.ToolRuns, 1)
	if err := fault.Inject("tool." + st.name); err != nil {
		return internalToolVerdict(st, err.Error())
	}
	var v verify.Verdict
	if st.dynamic {
		if lm.sim == nil {
			lm.sim = e.simulate(ctx, prog, ranks)
		}
		if lm.sim.internal != "" {
			return internalToolVerdict(st, lm.sim.internal)
		}
		v = st.tool.(verify.ProgramChecker).Interpret(lm.sim.res)
	} else {
		v = st.tool.CheckModule(ctx, lm.mod, mpisim.Config{})
	}
	out = ToolVerdict{Tool: st.name, Dynamic: st.dynamic,
		Flagged: v.Flagged, Reason: v.Reason}
	switch {
	case v.Canceled:
		out.Verdict = "canceled"
	case v.TO:
		out.Verdict = "timeout"
		out.wallTO = v.Wall
		atomic.AddInt64(&e.stats.analyze.SimTimeouts, 1)
	case v.CE || v.RE:
		out.Verdict = "error"
		out.Err = v.Reason
	case v.Flagged:
		out.Verdict = "flagged"
	default:
		out.Verdict = "clean"
	}
	return out
}

func canceledToolVerdict(st selectedTool) ToolVerdict {
	return ToolVerdict{Tool: st.name, Dynamic: st.dynamic, Verdict: "canceled"}
}

// internalToolVerdict reports a tool that failed for reasons internal
// to the tool (panic, injected fault) — a breaker-feeding error verdict.
func internalToolVerdict(st selectedTool, msg string) ToolVerdict {
	return ToolVerdict{Tool: st.name, Dynamic: st.dynamic,
		Verdict: "error", Err: "internal: " + msg, Internal: true}
}

// ensembleOf tallies the majority vote described on Ensemble.
func ensembleOf(ml Result, tools []ToolVerdict) Ensemble {
	var ens Ensemble
	if ml.Err == "" {
		ens.Voters++
		if ml.Incorrect {
			ens.Flags++
		}
	}
	for _, v := range tools {
		switch v.Verdict {
		case "flagged":
			ens.Voters++
			ens.Flags++
		case "clean":
			ens.Voters++
		case "degraded":
			ens.Degraded = true
		}
		if v.Internal {
			ens.Degraded = true
		}
	}
	ens.Incorrect = ens.Flags > 0 && 2*ens.Flags >= ens.Voters
	if ens.Voters > 0 {
		majority := ens.Flags
		if clean := ens.Voters - ens.Flags; clean > majority {
			majority = clean
		}
		ens.Agreement = float64(majority) / float64(ens.Voters)
	}
	return ens
}
