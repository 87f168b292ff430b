package jobs

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpidetect/internal/fault"
)

// waitTerminal polls until the job goes terminal.
func waitTerminal(t *testing.T, m *Manager[int], id string) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		snap, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if snap.State.Terminal() {
			return snap
		}
		time.Sleep(time.Millisecond)
	}
	snap, _ := m.Get(id)
	t.Fatalf("job %s stuck in %s", id, snap.State)
	panic("unreachable")
}

// waitState polls until the job reaches state s or the deadline expires.
func waitState(t *testing.T, m *Manager[int], id string, s State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		snap, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if snap.State == s {
			return snap
		}
		time.Sleep(time.Millisecond)
	}
	snap, _ := m.Get(id)
	t.Fatalf("job %s stuck in %s, want %s", id, snap.State, s)
	panic("unreachable")
}

func TestSubmitRunsToCompletionWithProgress(t *testing.T) {
	m := New[int](Config{Workers: 1})
	defer m.Close()

	snap, err := m.Submit(3, func(ctx context.Context, emit func(int)) error {
		emit(10)
		emit(20)
		emit(30)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateQueued || snap.Total != 3 || snap.ID == "" {
		t.Fatalf("submit snapshot %+v", snap)
	}
	done := waitState(t, m, snap.ID, StateCompleted)
	if done.Done != 3 || done.Error != "" {
		t.Fatalf("completed snapshot %+v, want 3 done, no error", done)
	}
	if done.Started.IsZero() || done.Finished.IsZero() {
		t.Fatalf("timestamps missing: %+v", done)
	}
	results, _, ok := m.Results(snap.ID)
	if !ok || len(results) != 3 || results[0] != 10 || results[2] != 30 {
		t.Fatalf("results %v, want [10 20 30]", results)
	}
}

func TestRunErrorMarksJobFailed(t *testing.T) {
	m := New[int](Config{Workers: 1})
	defer m.Close()

	snap, err := m.Submit(1, func(ctx context.Context, emit func(int)) error {
		return errors.New("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, m, snap.ID, StateFailed)
	if failed.Error != "boom" {
		t.Fatalf("error %q, want boom", failed.Error)
	}
}

// TestQueueFullIsBackpressure pins the load-shedding contract: with the
// single worker blocked and the queue at capacity, Submit must fail fast
// with ErrQueueFull rather than accept unbounded work.
func TestQueueFullIsBackpressure(t *testing.T) {
	m := New[int](Config{Workers: 1, QueueDepth: 2})
	defer m.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	if _, err := m.Submit(0, func(ctx context.Context, emit func(int)) error {
		close(started)
		<-release
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started // worker occupied
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(0, func(ctx context.Context, emit func(int)) error { return nil }); err != nil {
			t.Fatalf("submit %d into non-full queue: %v", i, err)
		}
	}
	if _, err := m.Submit(0, func(ctx context.Context, emit func(int)) error { return nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit err = %v, want ErrQueueFull", err)
	}
	if st := m.Stats(); st.QueueDepth != 2 || st.QueueCapacity != 2 {
		t.Fatalf("stats %+v, want depth 2 / cap 2", st)
	}
	close(release)
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	m := New[int](Config{Workers: 1, QueueDepth: 4})
	defer m.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	m.Submit(0, func(ctx context.Context, emit func(int)) error {
		close(started)
		<-release
		return nil
	})
	<-started

	var ran atomic.Bool
	snap, err := m.Submit(0, func(ctx context.Context, emit func(int)) error {
		ran.Store(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := m.Cancel(snap.ID)
	if !ok || got.State != StateCanceled {
		t.Fatalf("cancel -> %+v ok=%v, want canceled", got, ok)
	}
	close(release)
	// Let the worker drain the queue; the canceled job must be skipped.
	waitState(t, m, snap.ID, StateCanceled)
	time.Sleep(10 * time.Millisecond)
	if ran.Load() {
		t.Fatal("canceled queued job still ran")
	}
	if st := m.Stats(); st.Canceled != 1 {
		t.Fatalf("canceled counter %d, want 1", st.Canceled)
	}
}

func TestCancelRunningJobCancelsContext(t *testing.T) {
	m := New[int](Config{Workers: 1})
	defer m.Close()

	started := make(chan struct{})
	snap, err := m.Submit(0, func(ctx context.Context, emit func(int)) error {
		emit(1)
		close(started)
		<-ctx.Done()
		return ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, ok := m.Cancel(snap.ID); !ok {
		t.Fatal("cancel of running job not acknowledged")
	}
	done := waitState(t, m, snap.ID, StateCanceled)
	// Canceled wins over the RunFunc's returned ctx.Err.
	if done.Done != 1 {
		t.Fatalf("done %d, want 1 (result emitted before cancel)", done.Done)
	}
}

func TestTimeoutFailsJob(t *testing.T) {
	m := New[int](Config{Workers: 1, Timeout: 20 * time.Millisecond})
	defer m.Close()

	snap, err := m.Submit(0, func(ctx context.Context, emit func(int)) error {
		<-ctx.Done()
		return ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, m, snap.ID, StateFailed)
	if failed.Error == "" {
		t.Fatal("timed-out job has no error message")
	}
}

// TestFollowStreamsResultsThenTerminal drives the SSE loop shape:
// replay past the cursor, tail until terminal.
func TestFollowStreamsResultsThenTerminal(t *testing.T) {
	m := New[int](Config{Workers: 1})
	defer m.Close()

	step := make(chan struct{})
	snap, err := m.Submit(3, func(ctx context.Context, emit func(int)) error {
		for i := 1; i <= 3; i++ {
			select {
			case <-step:
			case <-ctx.Done():
				return ctx.Err()
			}
			emit(i * 100)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pace the job so results arrive across several Follow rounds.
	go func() {
		for i := 0; i < 3; i++ {
			step <- struct{}{}
			time.Sleep(time.Millisecond)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var got []int
	cursor := 0
	for {
		res, s, ok := m.Follow(ctx, snap.ID, cursor)
		if !ok {
			t.Fatal("follow failed")
		}
		got = append(got, res...)
		cursor += len(res)
		if s.State.Terminal() {
			break
		}
	}
	if len(got) != 3 || got[0] != 100 || got[2] != 300 {
		t.Fatalf("followed results %v, want [100 200 300]", got)
	}
}

func TestFollowUnknownJobAndContextExpiry(t *testing.T) {
	m := New[int](Config{Workers: 1})
	defer m.Close()

	if _, _, ok := m.Follow(context.Background(), "job-404", 0); ok {
		t.Fatal("follow of unknown job reported ok")
	}
	release := make(chan struct{})
	snap, _ := m.Submit(0, func(ctx context.Context, emit func(int)) error {
		<-release
		return nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, ok := m.Follow(ctx, snap.ID, 0); ok {
		t.Fatal("follow outlived its context")
	}
	close(release)
}

func TestRetentionEvictsOldestTerminalJobs(t *testing.T) {
	m := New[int](Config{Workers: 1, MaxRetained: 2})
	defer m.Close()

	var ids []string
	for i := 0; i < 4; i++ {
		snap, err := m.Submit(0, func(ctx context.Context, emit func(int)) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, snap.ID, StateCompleted)
		ids = append(ids, snap.ID)
	}
	if _, ok := m.Get(ids[0]); ok {
		t.Fatal("oldest job survived past MaxRetained")
	}
	if _, ok := m.Get(ids[3]); !ok {
		t.Fatal("newest job evicted")
	}
	if st := m.Stats(); st.Retained != 2 {
		t.Fatalf("retained %d, want 2", st.Retained)
	}
}

func TestOnTransitionSeesEveryStateChange(t *testing.T) {
	var mu sync.Mutex
	var states []State
	m := New[int](Config{Workers: 1, OnTransition: func(s Snapshot) {
		mu.Lock()
		states = append(states, s.State)
		mu.Unlock()
	}})
	defer m.Close()

	snap, err := m.Submit(0, func(ctx context.Context, emit func(int)) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, StateCompleted)
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(states)
		mu.Unlock()
		if n >= 3 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []State{StateQueued, StateRunning, StateCompleted}
	if len(states) != 3 {
		t.Fatalf("transitions %v, want %v", states, want)
	}
	for i, s := range want {
		if states[i] != s {
			t.Fatalf("transition %d = %s, want %s", i, states[i], s)
		}
	}
}

func TestCloseRejectsSubmitAndDrains(t *testing.T) {
	m := New[int](Config{Workers: 2})
	started := make(chan struct{})
	m.Submit(0, func(ctx context.Context, emit func(int)) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	})
	<-started
	m.Close()
	m.Close() // idempotent
	if _, err := m.Submit(0, func(ctx context.Context, emit func(int)) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close err = %v, want ErrClosed", err)
	}
}

// TestWorkerPanicIsolated: a panicking RunFunc fails its own job with a
// structured error; the worker survives and runs the next job.
func TestWorkerPanicIsolated(t *testing.T) {
	var hookID atomic.Value
	m := New[int](Config{Workers: 1, OnPanic: func(id string, v any) { hookID.Store(id) }})
	defer m.Close()

	snap, err := m.Submit(0, func(ctx context.Context, emit func(int)) error {
		panic("kaboom")
	})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, m, snap.ID)
	if got.State != StateFailed || !strings.Contains(got.Error, "worker panic") ||
		!strings.Contains(got.Error, "kaboom") {
		t.Fatalf("panicked job = %+v; want failed with structured panic error", got)
	}
	if id, _ := hookID.Load().(string); id != snap.ID {
		t.Fatalf("OnPanic hook saw %q, want %q", id, snap.ID)
	}

	// The pool is alive: the next job completes normally.
	snap2, err := m.Submit(1, func(ctx context.Context, emit func(int)) error {
		emit(7)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, m, snap2.ID); got.State != StateCompleted {
		t.Fatalf("job after panic = %+v; want completed", got)
	}
	if st := m.Stats(); st.Panics != 1 {
		t.Fatalf("panics = %d, want 1", st.Panics)
	}
}

// TestWorkerFaultPoint: an armed jobs.worker fault fails jobs without
// touching their RunFunc.
func TestWorkerFaultPoint(t *testing.T) {
	defer fault.DisarmAll()
	m := New[int](Config{Workers: 1})
	defer m.Close()
	if err := fault.Arm(FaultWorker, fault.Spec{Mode: fault.Error, Count: 1}); err != nil {
		t.Fatal(err)
	}
	ran := false
	snap, err := m.Submit(0, func(ctx context.Context, emit func(int)) error {
		ran = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, m, snap.ID)
	if got.State != StateFailed || !strings.Contains(got.Error, "injected") {
		t.Fatalf("faulted job = %+v", got)
	}
	if ran {
		t.Fatal("RunFunc ran despite injected worker fault")
	}
}

// TestDrainEstimateTracksBacklog: with no completions the estimate is
// the 1s floor; after observed runs it scales with queue depth.
func TestDrainEstimateTracksBacklog(t *testing.T) {
	m := New[int](Config{Workers: 1, QueueDepth: 8})
	defer m.Close()
	if got := m.DrainEstimate(); got != time.Second {
		t.Fatalf("cold estimate = %v, want 1s floor", got)
	}
	snap, err := m.Submit(0, func(ctx context.Context, emit func(int)) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, snap.ID)
	if atomic.LoadInt64(&m.avgRunNanos) <= 0 {
		t.Fatal("no run-time sample observed")
	}
	// Estimate stays clamped to the floor for tiny backlogs and never
	// exceeds the 5m ceiling.
	if got := m.DrainEstimate(); got < time.Second || got > 5*time.Minute {
		t.Fatalf("estimate %v outside [1s, 5m]", got)
	}
}
