package serve

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mpidetect/internal/core"
	"mpidetect/internal/events"
	"mpidetect/internal/fault"
	"mpidetect/internal/ir"
	"mpidetect/internal/resilience"
)

// panicDetector wraps a real detector and panics on every CheckModules —
// the misbehaving-model case classify panic isolation exists for.
type panicDetector struct{ core.Detector }

func (panicDetector) CheckModules([]*ir.Module) ([]core.Verdict, error) {
	panic("detector exploded")
}

// blockDetector parks every CheckModules on its gate, to back the worker
// queue up for admission-control tests.
type blockDetector struct {
	core.Detector
	gate chan struct{}
}

func (d blockDetector) CheckModules(ms []*ir.Module) ([]core.Verdict, error) {
	<-d.gate
	return make([]core.Verdict, len(ms)), nil
}

// TestToolBreakerTripsAndRecovers walks a dynamic tool through the full
// breaker cycle: injected internal failures trip it, an open breaker
// drops the tool out of the ensemble with a "degraded" verdict (marking
// the ensemble degraded), and after the cooldown one clean probe closes
// it again.
func TestToolBreakerTripsAndRecovers(t *testing.T) {
	defer fault.DisarmAll()
	eng := analyzeEngine(t, Config{CacheSize: 256,
		BreakerFailures: 2, BreakerCooldown: 50 * time.Millisecond})
	sub := eng.Bus().Subscribe(16, events.BreakerUpdated)
	defer sub.Close()
	req := AnalyzeRequest{Model: "ir2vec", Tools: []string{"must"},
		Program: Program{Name: "p", IR: pingpongIR(t)}}
	ctx := context.Background()

	if err := fault.Arm("tool.must", fault.Spec{Mode: fault.Error}); err != nil {
		t.Fatal(err)
	}
	// Two internal failures trip the breaker (internal verdicts are never
	// cached, so the repeat re-executes).
	for i := 0; i < 2; i++ {
		resp, err := eng.Analyze(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		v := verdictOf(t, resp, "must")
		if v.Verdict != "error" || !v.Internal || !strings.Contains(v.Err, "internal:") {
			t.Fatalf("injected-fault verdict %+v, want internal error", v)
		}
		if !resp.Ensemble.Degraded {
			t.Fatalf("ensemble %+v not marked degraded on internal failure", resp.Ensemble)
		}
	}

	// Tripped: the tool sits out with a degraded verdict — no execution,
	// so the armed fault is not even hit.
	resp, err := eng.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	v := verdictOf(t, resp, "must")
	if v.Verdict != "degraded" || v.Reason != "circuit breaker open" {
		t.Fatalf("open-breaker verdict %+v, want degraded", v)
	}
	if !resp.Ensemble.Degraded {
		t.Fatalf("ensemble %+v not marked degraded with open breaker", resp.Ensemble)
	}

	rs := eng.Stats().Resilience
	if rs == nil {
		t.Fatal("stats missing resilience section")
	}
	if rs.DegradedVerdicts < 1 {
		t.Fatalf("degraded_verdicts = %d, want >= 1", rs.DegradedVerdicts)
	}
	found := false
	for _, b := range rs.Breakers {
		if b.Tool == "must" {
			found = true
			if b.State != "open" || b.Trips < 1 {
				t.Fatalf("must breaker snapshot %+v, want open with >=1 trip", b)
			}
		}
	}
	if !found {
		t.Fatalf("resilience stats missing must breaker: %+v", rs.Breakers)
	}

	// Recovery: disarm, wait out the cooldown, and the half-open probe's
	// clean run closes the breaker with a real verdict.
	fault.DisarmAll()
	time.Sleep(60 * time.Millisecond)
	resp, err = eng.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if v := verdictOf(t, resp, "must"); v.Verdict != "clean" {
		t.Fatalf("post-recovery verdict %+v, want clean", v)
	}
	if resp.Ensemble.Degraded {
		t.Fatalf("ensemble still degraded after recovery: %+v", resp.Ensemble)
	}
	if st := eng.toolBreaker("must").State(); st != resilience.Closed {
		t.Fatalf("breaker state %v after clean probe, want Closed", st)
	}
	// The trip and the recovery were both published.
	saw := map[string]bool{}
	for done := false; !done; {
		select {
		case ev := <-sub.C():
			if d, ok := ev.Data.(BreakerUpdatedData); ok && d.Name == "must" {
				saw[d.To] = true
			}
		default:
			done = true
		}
	}
	if !saw["open"] || !saw["closed"] {
		t.Fatalf("breaker transitions on bus = %v, want open and closed", saw)
	}
}

// TestToolPanicIsolated: a panicking tool run becomes that tool's
// structured internal verdict — counted, published, never cached — and
// the engine keeps serving.
func TestToolPanicIsolated(t *testing.T) {
	defer fault.DisarmAll()
	eng := analyzeEngine(t, Config{CacheSize: 256})
	sub := eng.Bus().Subscribe(16, events.FaultRecovered)
	defer sub.Close()

	if err := fault.Arm("tool.parcoach", fault.Spec{Mode: fault.Panic, Count: 1}); err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Analyze(context.Background(), AnalyzeRequest{Model: "ir2vec",
		Tools: []string{"parcoach"}, Program: Program{IR: pingpongIR(t)}})
	if err != nil {
		t.Fatal(err)
	}
	v := verdictOf(t, resp, "parcoach")
	if v.Verdict != "error" || !v.Internal || !strings.Contains(v.Err, "tool panic") {
		t.Fatalf("panicking tool verdict %+v, want internal tool-panic error", v)
	}
	if got := eng.Stats().Resilience.ToolPanics; got != 1 {
		t.Fatalf("tool_panics = %d, want 1", got)
	}
	select {
	case ev := <-sub.C():
		d, ok := ev.Data.(FaultRecoveredData)
		if !ok || d.Subsystem != "tool" {
			t.Fatalf("fault.recovered event %+v, want tool subsystem", ev.Data)
		}
	case <-time.After(time.Second):
		t.Fatal("no fault.recovered event after tool panic")
	}

	// Nothing cached; the next run is a real verdict.
	resp, err = eng.Analyze(context.Background(), AnalyzeRequest{Model: "ir2vec",
		Tools: []string{"parcoach"}, Program: Program{IR: pingpongIR(t)}})
	if err != nil {
		t.Fatal(err)
	}
	if v := verdictOf(t, resp, "parcoach"); v.Internal {
		t.Fatalf("verdict still internal after fault auto-disarmed: %+v", v)
	}
}

// TestClassifyPanicIsolated: a panicking detector fails its own request
// with a structured internal error instead of killing a pool worker.
func TestClassifyPanicIsolated(t *testing.T) {
	reg := NewRegistry()
	reg.Register("good", trained(t))
	reg.Register("boom", panicDetector{trained(t)})
	eng := NewEngine(reg, Config{Workers: 2})
	defer eng.Close()

	res, err := eng.Classify(context.Background(), "boom",
		[]Program{{Name: "p", IR: pingpongIR(t)}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res[0].Err, "internal: classify panic") {
		t.Fatalf("result %+v, want structured classify-panic error", res[0])
	}
	if got := eng.Stats().Resilience.ClassifyPanics; got != 1 {
		t.Fatalf("classify_panics = %d, want 1", got)
	}

	// The worker survived: the healthy model still classifies.
	res, err = eng.Classify(context.Background(), "good",
		[]Program{{Name: "p", IR: pingpongIR(t)}})
	if err != nil || res[0].Err != "" {
		t.Fatalf("healthy model after panic: res %+v err %v", res, err)
	}
}

// TestAdmissionControlShedsDoomedRequests: with the worker queue backed
// up and the observed pipeline time saying a new request would expire in
// the queue, Classify fails fast with ErrOverloaded instead of parking
// doomed work.
func TestAdmissionControlShedsDoomedRequests(t *testing.T) {
	gate := make(chan struct{})
	reg := NewRegistry()
	reg.Register("slow", blockDetector{Detector: trained(t), gate: gate})
	eng := NewEngine(reg, Config{Workers: 1})
	irText := pingpongIR(t)

	// Back the queue up: the single worker drains at most predictBatch
	// jobs and parks on the gate, so the two programs beyond that queue
	// behind it whatever the drain caught.
	progs := make([]Program, predictBatch+2)
	for i := range progs {
		progs[i] = Program{IR: irText}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		eng.Classify(context.Background(), "slow", progs)
	}()
	// LIFO: the gate must open and the backlogged Classify must finish its
	// queue sends before Close tears the worker channel down.
	defer eng.Close()
	defer func() { <-done }()
	defer close(gate)
	deadline := time.Now().Add(5 * time.Second)
	for len(eng.jobs) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker queue never backed up")
		}
		time.Sleep(time.Millisecond)
	}
	// Seed the EWMA as if pipeline executions were observed taking 10s.
	atomic.StoreInt64(&eng.stats.avgExecNanos, int64(10*time.Second))

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := eng.Classify(ctx, "slow", []Program{{IR: irText}})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Classify under backlog = %v, want ErrOverloaded", err)
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) || oe.Wait <= 0 {
		t.Fatalf("error %v carries no positive predicted wait", err)
	}
	if got := eng.Stats().Resilience.ShedRequests; got != 1 {
		t.Fatalf("shed_requests = %d, want 1", got)
	}

	// A caller whose budget covers the predicted wait is admitted (it may
	// then block, which is fine — it can make its deadline).
	if err := eng.admit(time.Now().Add(time.Hour), true); err != nil {
		t.Fatalf("roomy budget shed: %v", err)
	}
}

// TestReadyReport pins readyz semantics: ok when healthy, degraded when
// a tool breaker is open (with the tool named), draining once shutdown
// starts — and draining wins over everything.
func TestReadyReport(t *testing.T) {
	eng := analyzeEngine(t, Config{CacheSize: 64, BreakerFailures: 1})

	rep := eng.Ready()
	if rep.Status != resilience.StatusOK {
		t.Fatalf("fresh engine readyz = %+v, want ok", rep)
	}
	subsystems := map[string]resilience.Subsystem{}
	for _, s := range rep.Subsystems {
		subsystems[s.Name] = s
	}
	for _, name := range []string{"engine", "tools", "jobs"} {
		if _, ok := subsystems[name]; !ok {
			t.Fatalf("readyz missing %q subsystem: %+v", name, rep.Subsystems)
		}
	}

	// Trip a tool breaker directly: readyz degrades and names the tool.
	b := eng.toolBreaker("itac")
	b.Allow()
	b.Record(false)
	rep = eng.Ready()
	if rep.Status != resilience.StatusDegraded {
		t.Fatalf("readyz with open breaker = %v, want degraded", rep.Status)
	}
	for _, s := range rep.Subsystems {
		if s.Name == "tools" {
			if s.Status != resilience.StatusDegraded || !strings.Contains(s.Detail, "itac") {
				t.Fatalf("tools subsystem %+v, want degraded naming itac", s)
			}
		}
	}

	eng.StartDraining()
	if !eng.draining.Load() {
		t.Fatal("draining = false after StartDraining")
	}
	if rep := eng.Ready(); rep.Status != resilience.StatusDraining {
		t.Fatalf("readyz while draining = %v, want draining", rep.Status)
	}
}
