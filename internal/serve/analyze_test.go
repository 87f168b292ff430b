package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mpidetect/internal/ast"
	"mpidetect/internal/dataset"
	"mpidetect/internal/fault"
	"mpidetect/internal/ir"
	"mpidetect/internal/irgen"
	"mpidetect/internal/mpisim"
	"mpidetect/internal/verify"
)

// progIR lowers an AST program to the textual-IR wire format.
func progIR(t testing.TB, p *ast.Program) string {
	t.Helper()
	m, err := irgen.Lower(p)
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	return ir.Print(m)
}

// pingpongIR is a correct two-rank exchange: every tool should answer
// "clean".
func pingpongIR(t testing.TB) string {
	stmts := ast.MPIBoilerplate()
	stmts = append(stmts,
		ast.DeclArr("buf", 8, ast.Int),
		ast.IfElse(ast.Eq(ast.Id("rank"), ast.I(0)),
			[]ast.Stmt{
				ast.CallS("MPI_Send", ast.Id("buf"), ast.I(8), ast.Id("MPI_INT"),
					ast.I(1), ast.I(7), ast.Id("MPI_COMM_WORLD")),
			},
			[]ast.Stmt{
				ast.CallS("MPI_Recv", ast.Id("buf"), ast.I(8), ast.Id("MPI_INT"),
					ast.I(0), ast.I(7), ast.Id("MPI_COMM_WORLD"), ast.Id("MPI_STATUS_IGNORE")),
			}),
		ast.Finalize(),
	)
	return progIR(t, ast.MainProgram("pingpong", stmts...))
}

// headToHeadIR deadlocks: both ranks Recv before Send.
func headToHeadIR(t testing.TB) string {
	stmts := ast.MPIBoilerplate()
	stmts = append(stmts,
		ast.DeclArr("buf", 4, ast.Int),
		ast.CallS("MPI_Recv", ast.Id("buf"), ast.I(4), ast.Id("MPI_INT"),
			ast.Sub(ast.I(1), ast.Id("rank")), ast.I(3), ast.Id("MPI_COMM_WORLD"),
			ast.Id("MPI_STATUS_IGNORE")),
		ast.CallS("MPI_Send", ast.Id("buf"), ast.I(4), ast.Id("MPI_INT"),
			ast.Sub(ast.I(1), ast.Id("rank")), ast.I(3), ast.Id("MPI_COMM_WORLD")),
		ast.Finalize(),
	)
	return progIR(t, ast.MainProgram("headtohead", stmts...))
}

// spinIR burns billions of interpreter steps without blocking — the
// cancellation worst case.
func spinIR(t testing.TB) string {
	stmts := ast.MPIBoilerplate()
	stmts = append(stmts,
		ast.Decl("x", ast.Int, ast.I(0)),
		ast.While(ast.Lt(ast.Id("x"), ast.I(2_000_000_000)),
			ast.Assign(ast.Id("x"), ast.Add(ast.Id("x"), ast.I(1)))),
		ast.Finalize(),
	)
	return progIR(t, ast.MainProgram("spin", stmts...))
}

func analyzeEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Tools == nil {
		cfg.Tools = DefaultTools()
	}
	reg := NewRegistry()
	reg.Register("ir2vec", trained(t))
	eng := NewEngine(reg, cfg)
	t.Cleanup(eng.Close)
	return eng
}

func verdictOf(t *testing.T, resp *AnalyzeResponse, tool string) ToolVerdict {
	t.Helper()
	for _, v := range resp.Tools {
		if v.Tool == tool {
			return v
		}
	}
	t.Fatalf("no verdict for tool %q in %+v", tool, resp.Tools)
	return ToolVerdict{}
}

// TestAnalyzeHybridVerdicts is the analysis acceptance path: one
// deadlocking and one correct program, each fanned out to the ML
// detector plus all four expert tools, with per-tool archetype behaviour
// visible in the response. (The HTTP form lives in serve/rest.)
func TestAnalyzeHybridVerdicts(t *testing.T) {
	eng := analyzeEngine(t, Config{CacheSize: 256})
	ctx := context.Background()

	// Deadlocking program: MUST flags it, ITAC times out on it.
	dead, err := eng.Analyze(ctx, AnalyzeRequest{Model: "ir2vec",
		Program: Program{Name: "headtohead", IR: headToHeadIR(t)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(dead.Tools) != 4 {
		t.Fatalf("got %d tool verdicts, want 4: %+v", len(dead.Tools), dead.Tools)
	}
	if v := verdictOf(t, dead, "must"); v.Verdict != "flagged" || !v.Dynamic {
		t.Fatalf("must verdict %+v, want dynamic flagged", v)
	}
	if v := verdictOf(t, dead, "itac"); v.Verdict != "timeout" {
		t.Fatalf("itac verdict %+v, want timeout (inconclusive on deadlock)", v)
	}
	if dead.Ensemble.Voters < 3 || dead.Ensemble.Flags < 1 {
		t.Fatalf("ensemble %+v: want >=3 voters and >=1 flag", dead.Ensemble)
	}

	// Correct program: both dynamic tools answer clean.
	ok, err := eng.Analyze(ctx, AnalyzeRequest{Model: "ir2vec",
		Program: Program{Name: "pingpong", IR: pingpongIR(t)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tool := range []string{"itac", "must"} {
		if v := verdictOf(t, ok, tool); v.Verdict != "clean" || v.Flagged {
			t.Fatalf("%s on correct code: %+v, want clean", tool, v)
		}
	}
	if ok.ML.Err != "" {
		t.Fatalf("ML verdict errored: %s", ok.ML.Err)
	}
}

// TestAnalyzeWarmRepeatRunsZeroSimulations is the cache acceptance
// criterion: a warm repeat of the same program + tool set is served
// entirely from the tool cache — zero additional simulator executions,
// observable through the /stats counters.
func TestAnalyzeWarmRepeatRunsZeroSimulations(t *testing.T) {
	eng := analyzeEngine(t, Config{CacheSize: 256})
	req := AnalyzeRequest{Model: "ir2vec", Program: Program{Name: "p", IR: pingpongIR(t)}}
	ctx := context.Background()

	cold, err := eng.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Analyze == nil {
		t.Fatal("stats missing analyze section with tools configured")
	}
	if st.Analyze.SimExecs != 1 {
		t.Fatalf("cold pass ran %d simulations, want 1 (shared by itac and must)", st.Analyze.SimExecs)
	}

	warm, err := eng.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.Analyze.SimExecs != 1 {
		t.Fatalf("warm repeat ran the simulator (%d execs, want 1)", st.Analyze.SimExecs)
	}
	if st.ToolCache == nil || st.ToolCache.Hits < 4 {
		t.Fatalf("tool cache stats %+v: want >=4 hits on the warm pass", st.ToolCache)
	}
	for i, v := range warm.Tools {
		if !v.Cached {
			t.Fatalf("warm verdict %d not marked cached: %+v", i, v)
		}
		if v.Verdict != cold.Tools[i].Verdict || v.Flagged != cold.Tools[i].Flagged {
			t.Fatalf("warm verdict diverged: cold %+v warm %+v", cold.Tools[i], v)
		}
	}
	if warm.Ensemble != cold.Ensemble {
		t.Fatalf("ensemble diverged: cold %+v warm %+v", cold.Ensemble, warm.Ensemble)
	}
}

// TestAnalyzeSharesOneSimulation: one request fanning a program out to
// both dynamic tools runs the simulator once, and the two tools still
// read that run differently (ITAC times out on the deadlock, MUST flags
// it) — with the caches on and with them off.
func TestAnalyzeSharesOneSimulation(t *testing.T) {
	for _, size := range []int{256, 0} {
		eng := analyzeEngine(t, Config{CacheSize: size})
		resp, err := eng.Analyze(context.Background(), AnalyzeRequest{Model: "ir2vec",
			Tools: []string{"itac", "must"}, Program: Program{IR: headToHeadIR(t)}})
		if err != nil {
			t.Fatal(err)
		}
		st := eng.Stats().Analyze
		if st.SimExecs != 1 {
			t.Fatalf("cache %d: cold itac+must ran %d simulations, want 1", size, st.SimExecs)
		}
		if st.ToolRuns != 2 {
			t.Fatalf("cache %d: tool_runs = %d, want 2", size, st.ToolRuns)
		}
		if v := verdictOf(t, resp, "itac"); v.Verdict != "timeout" || v.Reason != "timeout" {
			t.Fatalf("cache %d: itac verdict %+v, want timeout", size, v)
		}
		if v := verdictOf(t, resp, "must"); v.Verdict != "flagged" || v.Reason != "deadlock detected" {
			t.Fatalf("cache %d: must verdict %+v, want flagged deadlock", size, v)
		}
	}
}

// TestAnalyzeDynamicMatchesDirectCheck is a differential test of the
// shared simulation: over distinct programs from fresh generator seeds,
// the itac and must verdicts Engine.Analyze serves at 16 ranks equal a
// direct CheckProgram of each tool on the same compiled program.
func TestAnalyzeDynamicMatchesDirectCheck(t *testing.T) {
	const seed, programs = 4242, 64 // a seed no other test generates from
	codes := dataset.Merge("differential", dataset.GenerateMBI(seed),
		dataset.GenerateCorrBench(seed, false)).Shuffled(seed)
	eng := analyzeEngine(t, Config{CacheSize: 256, SimTimeout: time.Hour})
	tools := DefaultTools()
	cfg := mpisim.Config{Ranks: maxSimRanks, MaxSteps: verify.DefaultMaxSteps}
	ctx := context.Background()
	seen := map[string]bool{}
	classes := map[string]int{}
	for _, c := range codes {
		if len(seen) == programs {
			break
		}
		src := progIR(t, c.Prog)
		if seen[src] {
			continue
		}
		seen[src] = true
		resp, err := eng.Analyze(ctx, AnalyzeRequest{Model: "ir2vec",
			Tools: []string{"itac", "must"}, Ranks: maxSimRanks,
			Program: Program{Name: c.Name, IR: src}})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		m, err := ir.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		prog := mpisim.Compile(m)
		for _, name := range []string{"itac", "must"} {
			tool, _, _ := tools.Get(name)
			want := tool.(verify.ProgramChecker).CheckProgram(ctx, prog, cfg)
			got := verdictOf(t, resp, name)
			if got.Verdict != verdictClass(want) || got.Flagged != want.Flagged || got.Reason != want.Reason {
				t.Fatalf("%s: %s served %+v, direct CheckProgram %+v", c.Name, name, got, want)
			}
			classes[name+" "+got.Verdict]++
		}
	}
	if len(seen) < programs {
		t.Fatalf("seed %d gave only %d distinct programs, want %d", seed, len(seen), programs)
	}
	if st := eng.Stats().Analyze; st.SimExecs != programs {
		t.Fatalf("%d programs ran %d simulations, want one each", programs, st.SimExecs)
	}
	// Both tools' readings must be exercised, including the deadlock
	// case where they part.
	for _, k := range []string{"itac clean", "itac flagged", "itac timeout", "must clean", "must flagged"} {
		if classes[k] == 0 {
			t.Fatalf("no %q verdict among %d programs: %v", k, programs, classes)
		}
	}
	t.Logf("verdicts over %d programs: %v", programs, classes)
}

// verdictClass names a direct tool verdict the way the serving path does.
func verdictClass(v verify.Verdict) string {
	switch {
	case v.Canceled:
		return "canceled"
	case v.TO:
		return "timeout"
	case v.CE || v.RE:
		return "error"
	case v.Flagged:
		return "flagged"
	}
	return "clean"
}

// TestAnalyzeCompilesProgramOnce pins the compile-once contract of a
// request: one request fanning a program to both dynamic tools compiles
// the simulator program exactly once (itac and must share it).
func TestAnalyzeCompilesProgramOnce(t *testing.T) {
	eng := analyzeEngine(t, Config{CacheSize: 256})
	req := AnalyzeRequest{Model: "ir2vec", Tools: []string{"itac", "must"},
		Program: Program{Name: "p", IR: pingpongIR(t)}}
	if _, err := eng.Analyze(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Analyze.SimCompiles; got != 1 {
		t.Fatalf("cold request compiled %d times, want 1 (shared by itac+must)", got)
	}
}

// TestAnalyzeUncachedCompilesOncePerRequest: without a verdict cache a
// request still compiles once, however many dynamic tools read its
// simulation; the compiled program lives on the request, so the next
// request compiles again.
func TestAnalyzeUncachedCompilesOncePerRequest(t *testing.T) {
	eng := analyzeEngine(t, Config{})
	req := AnalyzeRequest{Model: "ir2vec", Tools: []string{"itac", "must"},
		Program: Program{Name: "p", IR: pingpongIR(t)}}
	for want := int64(1); want <= 2; want++ {
		if _, err := eng.Analyze(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		st := eng.Stats()
		if st.Analyze.SimCompiles != want || st.Analyze.SimExecs != want {
			t.Fatalf("after %d itac+must requests: sim_compiles %d, sim_execs %d; want %d each",
				want, st.Analyze.SimCompiles, st.Analyze.SimExecs, want)
		}
	}
}

// TestAnalyzeSimWorkersCap: Config.SimWorkers caps the simulations
// running at once across requests. With one slot and every run held
// 50 ms by a latency fault, two concurrent cold requests for different
// programs serialise on the slot: both finish, taking at least 100 ms.
func TestAnalyzeSimWorkersCap(t *testing.T) {
	defer fault.DisarmAll()
	eng := analyzeEngine(t, Config{CacheSize: 64, SimWorkers: 1})
	if err := fault.Arm(FaultSimRun, fault.Spec{Mode: fault.Latency,
		Delay: 50 * time.Millisecond, Count: 2}); err != nil {
		t.Fatal(err)
	}
	progs := []string{pingpongIR(t), headToHeadIR(t)}
	errs := make([]error, len(progs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, src := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := eng.Analyze(context.Background(), AnalyzeRequest{Model: "ir2vec",
				Tools: []string{"itac"}, Program: Program{IR: src}})
			if err == nil && resp.Tools[0].Verdict != "clean" && resp.Tools[0].Verdict != "timeout" {
				err = fmt.Errorf("itac verdict %+v", resp.Tools[0])
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := eng.Stats().Analyze.SimExecs; got != 2 {
		t.Fatalf("%d simulations, want 2", got)
	}
	if elapsed < 100*time.Millisecond {
		t.Fatalf("two 50 ms simulations on one slot took %v, want >= 100ms", elapsed)
	}
}

// TestAnalyzeStaticSubsetSkipsSimulator: selecting only static tools
// must never run the simulator.
func TestAnalyzeStaticSubsetSkipsSimulator(t *testing.T) {
	eng := analyzeEngine(t, Config{CacheSize: 256})
	_, err := eng.Analyze(context.Background(), AnalyzeRequest{
		Model:   "ir2vec",
		Tools:   []string{"parcoach", "mpi-checker"},
		Program: Program{IR: pingpongIR(t)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Analyze.SimExecs != 0 {
		t.Fatalf("static-only analysis ran %d simulations", st.Analyze.SimExecs)
	}
}

// TestAnalyzeShortDeadlineAbortsSimulation: a request deadline far below
// the simulation's step budget aborts the in-flight simulation promptly
// (cooperative cancellation), the cancelled verdict is never cached, and
// the engine keeps serving afterwards.
func TestAnalyzeShortDeadlineAbortsSimulation(t *testing.T) {
	eng := analyzeEngine(t, Config{CacheSize: 256, SimMaxSteps: 1 << 40, SimTimeout: time.Hour})
	spin := spinIR(t)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	resp, err := eng.Analyze(ctx, AnalyzeRequest{Model: "ir2vec",
		Tools: []string{"itac"}, Program: Program{IR: spin}})
	elapsed := time.Since(start)
	if elapsed > 10*time.Second {
		t.Fatalf("short-deadline analyze took %s; simulation did not abort", elapsed)
	}
	// The ML half may or may not beat the deadline; either outcome is
	// acceptable as long as the simulation died with the request.
	if err == nil {
		if v := verdictOf(t, resp, "itac"); v.Verdict != "canceled" {
			t.Fatalf("itac verdict %+v, want canceled", v)
		}
	} else if !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrCanceled) {
		t.Fatalf("unexpected analyze error: %v", err)
	}

	// Nothing was cached for the aborted run, and the pool is healthy: a
	// fresh, conclusive analysis still works (small step budget makes the
	// spin program a deterministic timeout verdict).
	if n := eng.Stats().ToolCache.Size; n != 0 {
		t.Fatalf("aborted simulation left %d cached entries", n)
	}
	resp2, err := eng.Analyze(context.Background(), AnalyzeRequest{Model: "ir2vec",
		Tools: []string{"parcoach"}, Program: Program{IR: pingpongIR(t)}})
	if err != nil {
		t.Fatalf("engine unhealthy after aborted simulation: %v", err)
	}
	// (PARCOACH flags the rank-dependent branch — its archetype FP storm —
	// the point here is only that the verdict is conclusive.)
	if v := verdictOf(t, resp2, "parcoach"); v.Verdict != "clean" && v.Verdict != "flagged" {
		t.Fatalf("parcoach after abort not conclusive: %+v", v)
	}
}

// TestWallTimeoutVerdictsAreNotCached: wall-clock exhaustion depends on
// host load, not the program, so a wall-budget "timeout" verdict must be
// served to the requester but never stored — the next request re-runs
// the simulation.
func TestWallTimeoutVerdictsAreNotCached(t *testing.T) {
	eng := analyzeEngine(t, Config{CacheSize: 256,
		SimMaxSteps: 1 << 40, SimTimeout: time.Millisecond})
	req := AnalyzeRequest{Model: "ir2vec", Tools: []string{"must"},
		Program: Program{IR: spinIR(t)}}
	ctx := context.Background()

	resp, err := eng.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if v := verdictOf(t, resp, "must"); v.Verdict != "timeout" {
		t.Fatalf("must verdict %+v, want wall-budget timeout", v)
	}
	if n := eng.Stats().ToolCache.Size; n != 0 {
		t.Fatalf("wall-clock timeout was cached (%d entries)", n)
	}
	if _, err := eng.Analyze(ctx, req); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Analyze.SimExecs; got != 2 {
		t.Fatalf("sim execs = %d, want 2 (wall timeouts must recompute)", got)
	}
}

// TestAnalyzeErrorsAndDisabled covers the request-validation surface:
// unknown models and tools, empty programs, and the disabled tier.
func TestAnalyzeErrorsAndDisabled(t *testing.T) {
	eng := analyzeEngine(t, Config{CacheSize: 256})
	ctx := context.Background()
	irText := pingpongIR(t)

	if _, err := eng.Analyze(ctx, AnalyzeRequest{Model: "nope",
		Program: Program{IR: irText}}); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model: %v", err)
	}
	if _, err := eng.Analyze(ctx, AnalyzeRequest{Model: "ir2vec",
		Tools: []string{"lint"}, Program: Program{IR: irText}}); !errors.Is(err, ErrUnknownTool) {
		t.Fatalf("unknown tool: %v", err)
	}
	if _, err := eng.Analyze(ctx, AnalyzeRequest{Model: "ir2vec"}); !errors.Is(err, ErrEmptyProgram) {
		t.Fatalf("empty program: %v", err)
	}

	// A parse failure is per-tool data, not a request error.
	resp, err := eng.Analyze(ctx, AnalyzeRequest{Model: "ir2vec",
		Program: Program{IR: "define garbage {"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range resp.Tools {
		if v.Verdict != "error" || v.Err == "" {
			t.Fatalf("tool verdict on unparsable program: %+v", v)
		}
	}
	if resp.Ensemble.Voters != 0 {
		t.Fatalf("unparsable program still has %d ensemble voters", resp.Ensemble.Voters)
	}
	if got := eng.Stats().Engine.ParseErrors; got != 1 {
		t.Fatalf("parse_errors = %d for one bad program, want 1 (no double count)", got)
	}

	// An engine without tools reports the tier disabled.
	reg := NewRegistry()
	reg.Register("ir2vec", trained(t))
	bare := NewEngine(reg, Config{})
	defer bare.Close()
	if _, err := bare.Analyze(ctx, AnalyzeRequest{Model: "ir2vec",
		Program: Program{IR: irText}}); !errors.Is(err, ErrAnalysisDisabled) {
		t.Fatalf("disabled analysis: %v, want ErrAnalysisDisabled", err)
	}
}

// TestInvalidateToolForcesRecompute: sweeping one tool's entries (the
// registry-replacement path) re-runs a simulation for exactly that tool;
// the other, still cached, does not join it.
func TestInvalidateToolForcesRecompute(t *testing.T) {
	tools := DefaultTools()
	eng := analyzeEngine(t, Config{CacheSize: 256, Tools: tools})
	req := AnalyzeRequest{Model: "ir2vec", Tools: []string{"itac", "must"},
		Program: Program{IR: pingpongIR(t)}}
	ctx := context.Background()

	if _, err := eng.Analyze(ctx, req); err != nil {
		t.Fatal(err)
	}
	if removed := eng.InvalidateTool("must"); removed != 1 {
		t.Fatalf("InvalidateTool removed %d entries, want 1", removed)
	}
	if _, err := eng.Analyze(ctx, req); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Analyze.SimExecs; got != 2 {
		t.Fatalf("sim execs = %d, want 2 (itac cached, must recomputed)", got)
	}

	// Re-registering a tool invalidates through the OnReplace hook too.
	tools.Register("itac", verify.ITAC{}, true)
	if _, err := eng.Analyze(ctx, req); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Analyze.SimExecs; got != 3 {
		t.Fatalf("sim execs = %d, want 3 after itac re-registration", got)
	}
}

// TestEnsembleMajority pins the documented vote rule.
func TestEnsembleMajority(t *testing.T) {
	flag := ToolVerdict{Verdict: "flagged"}
	clean := ToolVerdict{Verdict: "clean"}
	timeout := ToolVerdict{Verdict: "timeout"}
	cases := []struct {
		name  string
		ml    Result
		tools []ToolVerdict
		want  Ensemble
	}{
		{"unanimous-flag", Result{Incorrect: true}, []ToolVerdict{flag, flag},
			Ensemble{Incorrect: true, Flags: 3, Voters: 3, Agreement: 1}},
		{"majority-clean", Result{}, []ToolVerdict{clean, flag},
			Ensemble{Incorrect: false, Flags: 1, Voters: 3, Agreement: 2.0 / 3}},
		{"tie-leans-incorrect", Result{Incorrect: true}, []ToolVerdict{clean},
			Ensemble{Incorrect: true, Flags: 1, Voters: 2, Agreement: 0.5}},
		{"minority-flag-loses", Result{}, []ToolVerdict{clean, clean, flag},
			Ensemble{Incorrect: false, Flags: 1, Voters: 4, Agreement: 0.75}},
		{"inconclusive-dont-vote", Result{Incorrect: true}, []ToolVerdict{timeout, timeout},
			Ensemble{Incorrect: true, Flags: 1, Voters: 1, Agreement: 1}},
		{"ml-error-no-vote", Result{Err: "parse"}, []ToolVerdict{clean},
			Ensemble{Incorrect: false, Flags: 0, Voters: 1, Agreement: 1}},
	}
	for _, tc := range cases {
		if got := ensembleOf(tc.ml, tc.tools); got != tc.want {
			t.Errorf("%s: ensemble %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
