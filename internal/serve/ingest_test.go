package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mpidetect/internal/core"
	"mpidetect/internal/verify"
)

// TestToolKeyBytes pins toolKey to the formula the persisted tool
// verdicts were keyed under, and to one allocation per key.
func TestToolKeyBytes(t *testing.T) {
	if got, want := toolKey("must", 16, 5, "abc"), "must\x1franks=16|steps=5\x1fabc"; got != want {
		t.Fatalf("toolKey = %q, want %q", got, want)
	}
	digest := core.DigestIRKeyed(toolIdent, pingpongIR(t))
	cases := []struct {
		name  string
		ranks int
		steps int64
	}{
		{"must", 16, verify.DefaultMaxSteps},
		{"itac", 2, 1 << 40},
		{"parcoach", 0, 0},
		{"mpi-checker", math.MaxInt32, math.MaxInt64},
		{"x", math.MinInt32, math.MinInt64},
		{"", 1, -1},
	}
	var sink string
	for _, c := range cases {
		want := toolPrefix(c.name) + fmt.Sprintf("ranks=%d|steps=%d", c.ranks, c.steps) + keySep + digest
		if got := toolKey(c.name, c.ranks, c.steps, digest); got != want {
			t.Errorf("toolKey(%q, %d, %d) = %q, want %q", c.name, c.ranks, c.steps, got, want)
		}
		allocs := testing.AllocsPerRun(100, func() { sink = toolKey(c.name, c.ranks, c.steps, digest) })
		if allocs != 1 {
			t.Errorf("toolKey(%q, %d, %d): %v allocations, want 1", c.name, c.ranks, c.steps, allocs)
		}
	}
	_ = sink
}

// TestAnalyzeParsesOnce pins how often an analyze request parses its
// program: once when anything misses its cache, whoever needs the
// module first, and never on a warm repeat.
func TestAnalyzeParsesOnce(t *testing.T) {
	eng := analyzeEngine(t, Config{CacheSize: 256})
	ctx := context.Background()
	analyze := func(src string) *AnalyzeResponse {
		t.Helper()
		resp, err := eng.Analyze(ctx, AnalyzeRequest{Model: "ir2vec", Program: Program{IR: src}})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	step := func(name string, src string, want int64) *AnalyzeResponse {
		t.Helper()
		before := eng.Stats().Engine.Parses
		resp := analyze(src)
		if got := eng.Stats().Engine.Parses - before; got != want {
			t.Errorf("%s: %d parses, want %d", name, got, want)
		}
		return resp
	}
	src := headToHeadIR(t)

	step("cold", src, 1)
	if st := eng.Stats(); st.Engine.PipelineExecs != 1 || st.Analyze.SimExecs != 1 {
		t.Fatalf("cold: pipeline_execs %d, sim_execs %d; want 1 and 1",
			st.Engine.PipelineExecs, st.Analyze.SimExecs)
	}
	step("warm", src, 0)

	// An ML hit with every tool verdict swept: the tools parse.
	for _, name := range eng.tools.Names() {
		eng.InvalidateTool(name)
	}
	step("ml hit, tool miss", src, 1)
	if got := eng.Stats().Analyze.SimExecs; got != 2 {
		t.Fatalf("ml hit, tool miss: sim_execs %d, want 2", got)
	}

	// Every tool verdict cached, the model's verdicts swept by a reload:
	// the ML leg parses.
	eng.reg.Register("ir2vec", trained(t))
	resp := step("tool hit, ml miss", src, 1)
	if st := eng.Stats(); st.Engine.PipelineExecs != 2 || st.Analyze.SimExecs != 2 {
		t.Fatalf("tool hit, ml miss: pipeline_execs %d, sim_execs %d; want 2 and 2",
			st.Engine.PipelineExecs, st.Analyze.SimExecs)
	}
	if resp.ML.Err != "" || verdictOf(t, resp, "must").Verdict != "flagged" {
		t.Fatalf("tool hit, ml miss: %+v", resp)
	}

	// A program that does not parse: one parse, one parse error, and
	// every verdict carries it.
	errsBefore := eng.Stats().Engine.ParseErrors
	resp = step("unparsable", "define garbage {", 1)
	if got := eng.Stats().Engine.ParseErrors - errsBefore; got != 1 {
		t.Fatalf("unparsable: parse_errors moved by %d, want 1", got)
	}
	if !strings.HasPrefix(resp.ML.Err, "parse: ") {
		t.Fatalf("unparsable: ML result %+v, want a parse error", resp.ML)
	}
	for _, v := range resp.Tools {
		if !strings.HasPrefix(v.Err, "parse: ") {
			t.Fatalf("unparsable: tool verdict %+v, want a parse error", v)
		}
	}
}

// TestAnalyzeShedBeforeTools: with the worker queue backed up past the
// request's deadline, Analyze is shed by admission control before any
// tool runs or any simulation starts.
func TestAnalyzeShedBeforeTools(t *testing.T) {
	gate := make(chan struct{})
	reg := NewRegistry()
	reg.Register("slow", blockDetector{Detector: trained(t), gate: gate})
	eng := NewEngine(reg, Config{Workers: 1, Tools: DefaultTools()})
	irText := pingpongIR(t)

	// Back the queue up as TestAdmissionControlShedsDoomedRequests does.
	progs := make([]Program, predictBatch+2)
	for i := range progs {
		progs[i] = Program{IR: irText}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		eng.Classify(context.Background(), "slow", progs)
	}()
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
	atomic.StoreInt64(&eng.stats.avgExecNanos, int64(10*time.Second))

	before := eng.Stats()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := eng.Analyze(ctx, AnalyzeRequest{Model: "slow", Program: Program{IR: headToHeadIR(t)}})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Analyze under backlog = %v, want ErrOverloaded", err)
	}
	after := eng.Stats()
	if after.Analyze.ToolRuns != before.Analyze.ToolRuns || after.Analyze.SimExecs != before.Analyze.SimExecs {
		t.Fatalf("shed request ran work: tool_runs %d -> %d, sim_execs %d -> %d",
			before.Analyze.ToolRuns, after.Analyze.ToolRuns, before.Analyze.SimExecs, after.Analyze.SimExecs)
	}
	if after.Engine.Parses != before.Engine.Parses {
		t.Fatalf("shed request parsed: parses %d -> %d", before.Engine.Parses, after.Engine.Parses)
	}
}

// TestAnalyzeClassifyPanicKeepsTools: a detector that panics fails the
// request's ML verdict only; the tool verdicts computed on the same
// module are intact. Under -race a released module is poisoned, so a
// module released both by the classify worker and by the request would
// show here.
func TestAnalyzeClassifyPanicKeepsTools(t *testing.T) {
	reg := NewRegistry()
	reg.Register("boom", panicDetector{trained(t)})
	eng := NewEngine(reg, Config{Workers: 2, CacheSize: 256, Tools: DefaultTools()})
	defer eng.Close()

	resp, err := eng.Analyze(context.Background(), AnalyzeRequest{Model: "boom",
		Program: Program{IR: headToHeadIR(t)}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.ML.Err, "internal: classify panic") {
		t.Fatalf("ML result %+v, want a structured classify-panic error", resp.ML)
	}
	if len(resp.Tools) != 4 {
		t.Fatalf("got %d tool verdicts, want 4: %+v", len(resp.Tools), resp.Tools)
	}
	for _, v := range resp.Tools {
		if v.Internal || v.Err != "" {
			t.Fatalf("tool verdict %+v hurt by the ML panic", v)
		}
	}
	if v := verdictOf(t, resp, "must"); v.Verdict != "flagged" {
		t.Fatalf("must verdict %+v, want flagged", v)
	}
	if v := verdictOf(t, resp, "itac"); v.Verdict != "timeout" {
		t.Fatalf("itac verdict %+v, want timeout", v)
	}
	if got := eng.Stats().Resilience.ClassifyPanics; got != 1 {
		t.Fatalf("classify_panics = %d, want 1", got)
	}
}
