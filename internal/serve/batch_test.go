package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"mpidetect/internal/events"
	"mpidetect/internal/jobs"
	"mpidetect/internal/serve/servetest"
)

// batchOf builds a batch of n distinct correct programs (distinct module
// names give distinct digests, so nothing coalesces away).
func batchOf(t testing.TB, n int) []Program {
	t.Helper()
	progs := make([]Program, n)
	for i := range progs {
		name := fmt.Sprintf("pp-%d", i)
		progs[i] = Program{Name: name, IR: servetest.PingpongIR(t, name)}
	}
	return progs
}

func collectBatch(t *testing.T, ch <-chan VerdictEvent) []VerdictEvent {
	t.Helper()
	var out []VerdictEvent
	deadline := time.After(60 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, ev)
		case <-deadline:
			t.Fatalf("batch stream stalled after %d events", len(out))
		}
	}
}

// TestAnalyzeBatchMatchesSync: every program of a batch gets the same
// verdict the synchronous Analyze produces, and per-program indices map
// events back to the request.
func TestAnalyzeBatchMatchesSync(t *testing.T) {
	eng := analyzeEngine(t, Config{CacheSize: 256})
	progs := batchOf(t, 6)
	ctx := context.Background()

	ch, err := eng.AnalyzeBatch(ctx, BatchRequest{Model: "ir2vec", Programs: progs})
	if err != nil {
		t.Fatal(err)
	}
	evs := collectBatch(t, ch)
	if len(evs) != len(progs) {
		t.Fatalf("streamed %d events for %d programs", len(evs), len(progs))
	}
	seen := map[int]VerdictEvent{}
	for _, ev := range evs {
		if ev.Err != "" {
			t.Fatalf("program %d errored: %s", ev.Index, ev.Err)
		}
		seen[ev.Index] = ev
	}
	for i, p := range progs {
		ev, ok := seen[i]
		if !ok {
			t.Fatalf("no event for program %d", i)
		}
		if ev.Name != p.Name {
			t.Fatalf("event %d named %q, want %q", i, ev.Name, p.Name)
		}
		sync, err := eng.Analyze(ctx, AnalyzeRequest{Model: "ir2vec", Program: p})
		if err != nil {
			t.Fatal(err)
		}
		if ev.Ensemble != sync.Ensemble {
			t.Fatalf("program %d: batch ensemble %+v != sync %+v", i, ev.Ensemble, sync.Ensemble)
		}
	}
}

// TestWarmBatchRunsZeroSimulations is the satellite-3 acceptance: the
// streaming path rides the same tool cache as the sync path, so a warm
// batch re-analysis executes zero simulations.
func TestWarmBatchRunsZeroSimulations(t *testing.T) {
	eng := analyzeEngine(t, Config{CacheSize: 1024})
	progs := batchOf(t, 4)
	ctx := context.Background()

	ch, err := eng.AnalyzeBatch(ctx, BatchRequest{Model: "ir2vec", Programs: progs})
	if err != nil {
		t.Fatal(err)
	}
	collectBatch(t, ch)
	cold := eng.Stats().Analyze.SimExecs
	if cold == 0 {
		t.Fatal("cold batch ran no simulations; test is vacuous")
	}

	ch, err = eng.AnalyzeBatch(ctx, BatchRequest{Model: "ir2vec", Programs: progs})
	if err != nil {
		t.Fatal(err)
	}
	evs := collectBatch(t, ch)
	if got := eng.Stats().Analyze.SimExecs; got != cold {
		t.Fatalf("warm batch ran %d extra simulations, want 0", got-cold)
	}
	for _, ev := range evs {
		for _, v := range ev.Tools {
			if !v.Cached {
				t.Fatalf("warm verdict not served from cache: %+v", v)
			}
		}
	}
	st := eng.Stats().Analyze
	if st.BatchRequests != 2 || st.BatchPrograms != 8 {
		t.Fatalf("batch counters req=%d progs=%d, want 2/8", st.BatchRequests, st.BatchPrograms)
	}
}

// TestAnalyzeBatchValidation: request-level failures surface
// synchronously, before any stream exists.
func TestAnalyzeBatchValidation(t *testing.T) {
	eng := analyzeEngine(t, Config{CacheSize: 64, MaxStreamBatch: 2})
	progs := batchOf(t, 3)
	cases := []struct {
		name string
		req  BatchRequest
		want error
	}{
		{"empty", BatchRequest{Model: "ir2vec"}, ErrEmptyBatch},
		{"too-large", BatchRequest{Model: "ir2vec", Programs: progs}, ErrBatchTooLarge},
		{"unknown-model", BatchRequest{Model: "nope", Programs: progs[:1]}, ErrUnknownModel},
		{"unknown-tool", BatchRequest{Model: "ir2vec", Tools: []string{"lint"},
			Programs: progs[:1]}, ErrUnknownTool},
	}
	for _, tc := range cases {
		if _, err := eng.AnalyzeBatch(context.Background(), tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
	}
	bare := NewEngine(func() *Registry { r := NewRegistry(); r.Register("ir2vec", trained(t)); return r }(), Config{})
	defer bare.Close()
	if _, err := bare.AnalyzeBatch(context.Background(), BatchRequest{Model: "ir2vec",
		Programs: progs[:1]}); !errors.Is(err, ErrAnalysisDisabled) {
		t.Errorf("disabled tier: err %v, want ErrAnalysisDisabled", err)
	}
}

// TestBatchFirstVerdictBeforeLast is the streaming acceptance criterion:
// with one injected program stalled inside a tool, verdicts for the
// other programs arrive while the stall is still being held — the stream
// does not buffer until completion.
func TestBatchFirstVerdictBeforeLast(t *testing.T) {
	tools := NewToolRegistry()
	stall := servetest.NewStallTool("stall")
	tools.Register("stall", stall, false)
	eng := analyzeEngine(t, Config{CacheSize: 1024, Tools: tools})

	progs := batchOf(t, 9)
	progs = append(progs, Program{Name: "stall", IR: servetest.PingpongIR(t, "stall")})
	ch, err := eng.AnalyzeBatch(context.Background(), BatchRequest{Model: "ir2vec", Programs: progs})
	if err != nil {
		t.Fatal(err)
	}

	got := 0
	timeout := time.After(60 * time.Second)
	for got < len(progs)-1 {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("stream closed after %d events with the stall still held", got)
			}
			if ev.Name == "stall" {
				t.Fatal("stalled program completed while its tool was gated")
			}
			if ev.Err != "" {
				t.Fatalf("program %s errored: %s", ev.Name, ev.Err)
			}
			got++
		case <-timeout:
			t.Fatalf("only %d verdicts arrived while one program stalled", got)
		}
	}
	// Release the gate; the last verdict must now flow and the stream close.
	close(stall.Gate)
	evs := collectBatch(t, ch)
	if len(evs) != 1 || evs[0].Name != "stall" {
		t.Fatalf("after release got %+v, want the single stalled verdict", evs)
	}
}

// TestBatchCancellationStopsWork: cancelling the stream context stops
// the batch — the channel closes without delivering all programs, and
// stalled per-program work is released (no goroutine leak; -race runs
// this).
func TestBatchCancellationStopsWork(t *testing.T) {
	tools := NewToolRegistry()
	stall := servetest.NewStallTool("stall")
	tools.Register("stall", stall, false)
	// BatchParallel 1 serializes the batch: the stalled program blocks
	// everything behind it until cancellation.
	eng := analyzeEngine(t, Config{CacheSize: 64, Tools: tools, BatchParallel: 1})

	progs := []Program{
		{Name: "stall", IR: servetest.PingpongIR(t, "stall")},
		{Name: "after", IR: servetest.PingpongIR(t, "after")},
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := eng.AnalyzeBatch(ctx, BatchRequest{Model: "ir2vec", Programs: progs})
	if err != nil {
		t.Fatal(err)
	}
	<-stall.Stalled()
	cancel()

	deadline := time.After(30 * time.Second)
	var evs []VerdictEvent
drain:
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				break drain
			}
			evs = append(evs, ev)
		case <-deadline:
			t.Fatal("stream did not close after cancellation")
		}
	}
	for _, ev := range evs {
		if ev.Name == "after" && ev.Err == "" {
			t.Fatalf("program behind the stall completed after cancel: %+v", ev)
		}
	}
}

// TestJobLifecycle: submit → poll → results, with progress counters and
// a job.updated event trail on the bus.
func TestJobLifecycle(t *testing.T) {
	eng := analyzeEngine(t, Config{CacheSize: 256})
	sub := eng.Bus().Subscribe(64, events.JobUpdated)
	defer sub.Close()

	progs := batchOf(t, 3)
	snap, err := eng.SubmitJob(BatchRequest{Model: "ir2vec", Programs: progs})
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID == "" || snap.State != jobs.StateQueued || snap.Total != 3 {
		t.Fatalf("submit snapshot %+v", snap)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		s, ok := eng.Job(snap.ID)
		if !ok {
			t.Fatal("job vanished")
		}
		if s.State == jobs.StateCompleted {
			if s.Done != 3 {
				t.Fatalf("completed with done=%d, want 3", s.Done)
			}
			break
		}
		if s.State.Terminal() {
			t.Fatalf("job ended %s: %s", s.State, s.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", s.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	results, _, ok := eng.JobResults(snap.ID)
	if !ok || len(results) != 3 {
		t.Fatalf("results %d, want 3", len(results))
	}
	for _, ev := range results {
		if ev.Err != "" {
			t.Fatalf("job program %d errored: %s", ev.Index, ev.Err)
		}
	}

	// The bus saw the queued → running → completed trail.
	states := map[jobs.State]bool{}
	for len(states) < 3 {
		select {
		case ev := <-sub.C():
			if s, ok := ev.Data.(jobs.Snapshot); ok && s.ID == snap.ID {
				states[s.State] = true
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("bus delivered states %v, want all three", states)
		}
	}
}

// TestJobBackpressure: a full job queue rejects with ErrJobQueueFull
// instead of queueing unbounded work.
func TestJobBackpressure(t *testing.T) {
	tools := NewToolRegistry()
	stall := servetest.NewStallTool("stall")
	tools.Register("stall", stall, false)
	eng := analyzeEngine(t, Config{CacheSize: 64, Tools: tools,
		JobWorkers: 1, JobQueueDepth: 1})

	stallReq := BatchRequest{Model: "ir2vec",
		Programs: []Program{{Name: "stall", IR: servetest.PingpongIR(t, "stall")}}}
	if _, err := eng.SubmitJob(stallReq); err != nil {
		t.Fatal(err)
	}
	<-stall.Stalled() // worker occupied
	if _, err := eng.SubmitJob(stallReq); err != nil {
		t.Fatalf("submit into free queue slot: %v", err)
	}
	if _, err := eng.SubmitJob(stallReq); !errors.Is(err, ErrJobQueueFull) {
		t.Fatalf("overflow submit err %v, want ErrJobQueueFull", err)
	}
	if st := eng.Stats().Jobs; st.QueueDepth != 1 || st.QueueCapacity != 1 {
		t.Fatalf("job stats %+v, want depth 1 cap 1", st)
	}
	close(stall.Gate)
}

// TestJobCancel: cancelling a running job goes terminal with partial
// results retained.
func TestJobCancel(t *testing.T) {
	tools := NewToolRegistry()
	stall := servetest.NewStallTool("stall")
	tools.Register("stall", stall, false)
	eng := analyzeEngine(t, Config{CacheSize: 64, Tools: tools, BatchParallel: 1})

	progs := []Program{
		{Name: "ok", IR: servetest.PingpongIR(t, "ok")},
		{Name: "stall", IR: servetest.PingpongIR(t, "stall")},
	}
	snap, err := eng.SubmitJob(BatchRequest{Model: "ir2vec", Programs: progs})
	if err != nil {
		t.Fatal(err)
	}
	<-stall.Stalled()
	if _, ok := eng.CancelJob(snap.ID); !ok {
		t.Fatal("cancel not acknowledged")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		s, _ := eng.Job(snap.ID)
		if s.State == jobs.StateCanceled {
			break
		}
		if s.State.Terminal() {
			t.Fatalf("job ended %s, want canceled", s.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after cancel", s.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	results, _, _ := eng.JobResults(snap.ID)
	for _, ev := range results {
		if ev.Name == "ok" && ev.Err != "" {
			t.Fatalf("pre-cancel result lost: %+v", ev)
		}
	}
}

// TestVerdictEventsPublished: every analyzed program (sync and batch)
// publishes a verdict.completed event.
func TestVerdictEventsPublished(t *testing.T) {
	eng := analyzeEngine(t, Config{CacheSize: 256})
	sub := eng.Bus().Subscribe(64, events.VerdictCompleted)
	defer sub.Close()

	progs := batchOf(t, 2)
	if _, err := eng.Analyze(context.Background(), AnalyzeRequest{Model: "ir2vec",
		Program: progs[0]}); err != nil {
		t.Fatal(err)
	}
	ch, err := eng.AnalyzeBatch(context.Background(), BatchRequest{Model: "ir2vec", Programs: progs})
	if err != nil {
		t.Fatal(err)
	}
	collectBatch(t, ch)

	want := 3 // one sync + two batch
	for got := 0; got < want; {
		select {
		case ev := <-sub.C():
			d, ok := ev.Data.(VerdictCompletedData)
			if !ok || d.Model != "ir2vec" {
				t.Fatalf("unexpected verdict event %+v", ev)
			}
			got++
		case <-time.After(10 * time.Second):
			t.Fatalf("bus delivered %d verdict events, want %d", got, want)
		}
	}
}
