package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"mpidetect/internal/fault"
	"mpidetect/internal/jobs"
	"mpidetect/internal/serve/servetest"
	"mpidetect/internal/store"
)

// chaosWorkload drives one mixed round — classify, hybrid analyze, an
// async job — and fails the test on any outcome that is neither a
// verdict nor a structured, sentinel-matched error. salt varies the
// programs so rounds cannot hide behind each other's cache entries.
func chaosWorkload(t *testing.T, eng *Engine, salt string) {
	t.Helper()
	ctx := context.Background()
	progs := []Program{
		{Name: "chaos-a-" + salt, IR: servetest.PingpongIR(t, "chaos-a-"+salt)},
		{Name: "chaos-b-" + salt, IR: servetest.PingpongIR(t, "chaos-b-"+salt)},
	}

	res, err := eng.Classify(ctx, "ir2vec", progs)
	switch {
	case err == nil:
		for i, r := range res {
			if r.Err == "" && r.Label == "" {
				t.Fatalf("[%s] classify result %d has neither verdict nor error: %+v", salt, i, r)
			}
		}
	case errors.Is(err, ErrOverloaded) || isCancellation(err):
		// Structured shedding/timeout: an acceptable chaos outcome.
	default:
		t.Fatalf("[%s] classify failed unstructured: %v", salt, err)
	}

	resp, err := eng.Analyze(ctx, AnalyzeRequest{Model: "ir2vec",
		Program: Program{Name: progs[0].Name, IR: progs[0].IR}})
	switch {
	case err == nil:
		for _, v := range resp.Tools {
			if v.Verdict == "" {
				t.Fatalf("[%s] tool verdict missing: %+v", salt, v)
			}
			if v.Verdict == "error" && v.Err == "" {
				t.Fatalf("[%s] error verdict without detail: %+v", salt, v)
			}
		}
	case isCancellation(err):
	default:
		t.Fatalf("[%s] analyze failed unstructured: %v", salt, err)
	}

	snap, err := eng.SubmitJob(BatchRequest{Model: "ir2vec", Programs: progs})
	if err != nil {
		if !errors.Is(err, ErrJobQueueFull) {
			t.Fatalf("[%s] job submit failed unstructured: %v", salt, err)
		}
		return // backpressure is a structured outcome
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		s, ok := eng.Job(snap.ID)
		if !ok {
			t.Fatalf("[%s] job %s vanished", salt, snap.ID)
		}
		if s.State == jobs.StateCompleted || s.State == jobs.StateFailed ||
			s.State == jobs.StateCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("[%s] job %s stuck in state %s", salt, snap.ID, s.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestChaosEveryFaultPoint is the resilience acceptance suite: every
// registered fault point is armed — error mode everywhere, panic mode at
// the panic-isolated points — against a mixed classify/analyze/jobs
// workload. The process must never crash, every request must end in a
// verdict or a structured error, and once the faults are disarmed the
// goroutine count must return to its pre-chaos baseline (nothing leaked,
// nothing wedged).
func TestChaosEveryFaultPoint(t *testing.T) {
	defer fault.DisarmAll()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := NewRegistry()
	reg.Register("ir2vec", trained(t))
	eng := NewEngine(reg, Config{
		CacheSize: 512, Tools: DefaultTools(), Store: st,
		JobWorkers: 2, JobQueueDepth: 8,
		BreakerFailures: 3, BreakerCooldown: 50 * time.Millisecond,
	})
	defer eng.Close()

	// Warm-up round, then the goroutine baseline the chaos must return to.
	chaosWorkload(t, eng, "warmup")
	baseline := runtime.NumGoroutine()

	// Error mode at every registered point, one round each.
	for i, info := range fault.List() {
		if err := fault.Arm(info.Point, fault.Spec{Mode: fault.Error,
			Message: "chaos"}); err != nil {
			t.Fatal(err)
		}
		chaosWorkload(t, eng, fmt.Sprintf("err-%d-%s", i, info.Point))
		fault.Disarm(info.Point)
	}

	// Panic mode at the panic-isolated points: pooled goroutines must
	// recover into structured verdicts, not kill the process.
	panicPoints := []string{"jobs.worker", "sim.run", "store.append",
		"tool.parcoach", "tool.must"}
	for i, pt := range panicPoints {
		if err := fault.Arm(pt, fault.Spec{Mode: fault.Panic, Count: 2}); err != nil {
			t.Fatal(err)
		}
		chaosWorkload(t, eng, fmt.Sprintf("panic-%d-%s", i, pt))
		fault.Disarm(pt)
	}

	// Latency faults must delay, not deadlock.
	for _, pt := range []string{"cache.backing.load", "tool.itac", "sim.run"} {
		if err := fault.Arm(pt, fault.Spec{Mode: fault.Latency,
			Delay: 5 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		chaosWorkload(t, eng, "lat-"+pt)
		fault.Disarm(pt)
	}

	// Calm after the storm: a clean round succeeds outright and the
	// goroutine population drains back to baseline.
	fault.DisarmAll()
	time.Sleep(60 * time.Millisecond) // let breaker cooldowns elapse
	chaosWorkload(t, eng, "recovery")

	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+5 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines did not return to baseline (%d now, %d before):\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The recovery paths were actually exercised.
	rs := eng.Stats().Resilience
	if rs.ToolPanics == 0 && rs.JobPanics == 0 && rs.StorePanics == 0 {
		t.Fatalf("chaos ran but no panic recovery was counted: %+v", rs)
	}
}

// TestChaosSharedSimulation pins the fault semantics of the one
// simulation a request's dynamic tools share: a tool's own fault fails
// only that tool while the other still serves its real verdict from the
// one run, an armed sim.run fault (or a panic in the run) fails both as
// internal verdicts, and a tool held out by its open breaker leaves the
// other to run the simulation alone.
func TestChaosSharedSimulation(t *testing.T) {
	defer fault.DisarmAll()
	ctx := context.Background()
	prog := Program{IR: pingpongIR(t)} // clean under both tools
	analyze := func(eng *Engine) *AnalyzeResponse {
		t.Helper()
		resp, err := eng.Analyze(ctx, AnalyzeRequest{Model: "ir2vec",
			Tools: []string{"itac", "must"}, Program: prog})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	sims := func(eng *Engine) int64 { return eng.Stats().Analyze.SimExecs }

	// One tool's fault: the other reads the one run.
	for _, tc := range []struct{ faulted, served string }{{"itac", "must"}, {"must", "itac"}} {
		eng := analyzeEngine(t, Config{CacheSize: 64})
		if err := fault.Arm("tool."+tc.faulted, fault.Spec{Mode: fault.Error, Message: "chaos"}); err != nil {
			t.Fatal(err)
		}
		resp := analyze(eng)
		fault.DisarmAll()
		if v := verdictOf(t, resp, tc.faulted); v.Verdict != "error" || !v.Internal {
			t.Fatalf("tool.%s armed: %s verdict %+v, want internal error", tc.faulted, tc.faulted, v)
		}
		if v := verdictOf(t, resp, tc.served); v.Verdict != "clean" || v.Internal {
			t.Fatalf("tool.%s armed: %s verdict %+v, want its real clean verdict", tc.faulted, tc.served, v)
		}
		if got := sims(eng); got != 1 {
			t.Fatalf("tool.%s armed: %d simulations, want 1", tc.faulted, got)
		}
	}

	// The simulation's own fault, as an error and as a panic: both tools
	// fail internally, and the ensemble says it ran without them. Each
	// case gets a fresh engine, so nothing is served from a cache.
	for _, mode := range []fault.Mode{fault.Error, fault.Panic} {
		eng := analyzeEngine(t, Config{CacheSize: 64})
		if err := fault.Arm(FaultSimRun, fault.Spec{Mode: mode, Message: "chaos"}); err != nil {
			t.Fatal(err)
		}
		resp := analyze(eng)
		fault.DisarmAll()
		for _, tool := range []string{"itac", "must"} {
			if v := verdictOf(t, resp, tool); v.Verdict != "error" || !v.Internal {
				t.Fatalf("sim.run %v: %s verdict %+v, want internal error", mode, tool, v)
			}
		}
		if !resp.Ensemble.Degraded {
			t.Fatalf("sim.run %v: ensemble %+v not degraded", mode, resp.Ensemble)
		}
		if got := sims(eng); got != 0 {
			t.Fatalf("sim.run %v: %d simulations counted, want 0", mode, got)
		}
		wantPanics := int64(0)
		if mode == fault.Panic {
			wantPanics = 1
		}
		if got := eng.Stats().Resilience.ToolPanics; got != wantPanics {
			t.Fatalf("sim.run %v: tool_panics = %d, want %d", mode, got, wantPanics)
		}
		if n := eng.Stats().ToolCache.Size; n != 0 {
			t.Fatalf("sim.run %v: %d internal verdicts cached", mode, n)
		}
	}

	// ITAC's breaker open: MUST alone runs the simulation.
	eng := analyzeEngine(t, Config{CacheSize: 64, BreakerFailures: 1, BreakerCooldown: time.Hour})
	b := eng.toolBreaker("itac")
	b.Allow()
	b.Record(false)
	resp := analyze(eng)
	if v := verdictOf(t, resp, "itac"); v.Verdict != "degraded" {
		t.Fatalf("open breaker: itac verdict %+v, want degraded", v)
	}
	if v := verdictOf(t, resp, "must"); v.Verdict != "clean" {
		t.Fatalf("open breaker: must verdict %+v, want clean", v)
	}
	if got := sims(eng); got != 1 {
		t.Fatalf("open breaker: %d simulations, want 1 (must alone)", got)
	}
}
