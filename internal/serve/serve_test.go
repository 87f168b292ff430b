package serve

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpidetect/internal/cache"
	"mpidetect/internal/core"
	"mpidetect/internal/dataset"
	"mpidetect/internal/ir"
	"mpidetect/internal/irgen"
	"mpidetect/internal/passes"
)

var (
	trainedOnce sync.Once
	trainedDet  core.Detector
	trainedErr  error
)

// trained returns one shared small detector for the whole test package.
func trained(t testing.TB) core.Detector {
	t.Helper()
	trainedOnce.Do(func() {
		cfg := core.DefaultIR2VecConfig()
		cfg.Dim = 32
		trainedDet, trainedErr = core.TrainIR2Vec(dataset.GenerateCorrBench(1, false), cfg)
	})
	if trainedErr != nil {
		t.Fatal(trainedErr)
	}
	return trainedDet
}

// corpusIR lowers n held-out programs to textual IR.
func corpusIR(t testing.TB, n int) ([]Program, []*dataset.Code) {
	t.Helper()
	d := dataset.GenerateCorrBench(7, false)
	if len(d.Codes) < n {
		n = len(d.Codes)
	}
	progs := make([]Program, n)
	codes := d.Codes[:n]
	for i, c := range codes {
		m := irgen.MustLower(c.Prog)
		progs[i] = Program{Name: c.Name, IR: ir.Print(m)}
	}
	return progs, codes
}

// TestSavedArtifactServesConcurrently is the engine acceptance path: a
// detector trained and saved through the CLI's code path
// (core.SaveDetectorFile) is loaded by the registry and serves
// concurrent Classify traffic with verdicts identical to the in-process
// detector. (The HTTP form of this path lives in serve/rest.)
func TestSavedArtifactServesConcurrently(t *testing.T) {
	det := trained(t)
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := core.SaveDetectorFile(path, det); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	if err := reg.LoadFile("ir2vec", path); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(reg, Config{})
	defer eng.Close()

	progs, codes := corpusIR(t, 12)
	want := make([]core.Verdict, len(codes))
	for i, c := range codes {
		v, err := core.CheckIR(det, progs[i].IR)
		if err != nil {
			t.Fatalf("direct check of %s: %v", c.Name, err)
		}
		want[i] = v
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := eng.Classify(context.Background(), "ir2vec", progs)
			if err != nil {
				errs <- err
				return
			}
			for i, r := range out {
				if r.Err != "" {
					errs <- fmt.Errorf("%s: %s", r.Name, r.Err)
					return
				}
				if r.Incorrect != want[i].Incorrect || r.Label != want[i].Label.String() {
					errs <- fmt.Errorf("%s: served (%v,%s) != direct (%v,%s)",
						r.Name, r.Incorrect, r.Label, want[i].Incorrect, want[i].Label)
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestParseErrorIsPerItem(t *testing.T) {
	reg := NewRegistry()
	reg.Register("ir2vec", trained(t))
	eng := NewEngine(reg, Config{})
	defer eng.Close()
	progs, _ := corpusIR(t, 1)
	progs = append(progs, Program{Name: "broken", IR: "define garbage {"})
	out, err := eng.Classify(context.Background(), "ir2vec", progs)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err != "" {
		t.Fatalf("healthy program errored: %s", out[0].Err)
	}
	if out[1].Err == "" {
		t.Fatal("broken program did not report a parse error")
	}
}

// slowDetector stalls long enough to trip the engine timeout.
type slowDetector struct{ d time.Duration }

func (s slowDetector) CheckModules(ms []*ir.Module) ([]core.Verdict, error) {
	time.Sleep(s.d)
	return make([]core.Verdict, len(ms)), nil
}
func (s slowDetector) Name() string         { return "slow" }
func (s slowDetector) Opt() passes.OptLevel { return passes.O0 }

func TestRequestTimeout(t *testing.T) {
	reg := NewRegistry()
	reg.Register("slow", slowDetector{500 * time.Millisecond})
	eng := NewEngine(reg, Config{Timeout: 30 * time.Millisecond, Workers: 1})
	defer eng.Close()
	progs, _ := corpusIR(t, 2)
	_, err := eng.Classify(context.Background(), "slow", progs)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

// TestClientDeadlineCannotBypassServerTimeout is the regression test for
// the budget-cap bug: the engine used to apply cfg.Timeout only when the
// caller context had no deadline of its own, so a client presenting a
// distant deadline got an unbounded budget. The effective budget must be
// min(caller deadline, cfg.Timeout).
func TestClientDeadlineCannotBypassServerTimeout(t *testing.T) {
	reg := NewRegistry()
	reg.Register("slow", slowDetector{500 * time.Millisecond})
	eng := NewEngine(reg, Config{Timeout: 30 * time.Millisecond, Workers: 1})
	defer eng.Close()
	progs, _ := corpusIR(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	start := time.Now()
	_, err := eng.Classify(ctx, "slow", progs)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("server budget of 30ms took %s to trip under a 10-minute client deadline", elapsed)
	}
}

func TestCallerCancellationIsNotATimeout(t *testing.T) {
	reg := NewRegistry()
	reg.Register("slow", slowDetector{500 * time.Millisecond})
	eng := NewEngine(reg, Config{Workers: 1})
	defer eng.Close()
	progs, _ := corpusIR(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := eng.Classify(ctx, "slow", progs)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if errors.Is(err, ErrTimeout) {
		t.Fatalf("cancellation misreported as timeout: %v", err)
	}
}

// ---------------------------------------------------------------------------
// Cache, coalescing, invalidation, and /stats (PR 2).
// ---------------------------------------------------------------------------

// countingDetector counts pipeline executions (modules passed to
// CheckModules) and can stall to hold a cache flight open.
type countingDetector struct {
	name  string
	delay time.Duration
	execs atomic.Int64
}

func (c *countingDetector) CheckModules(ms []*ir.Module) ([]core.Verdict, error) {
	c.execs.Add(int64(len(ms)))
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	out := make([]core.Verdict, len(ms))
	for i := range out {
		out[i] = core.Verdict{Incorrect: true, Label: dataset.CallOrdering, Confidence: 1}
	}
	return out, nil
}
func (c *countingDetector) Name() string         { return c.name }
func (c *countingDetector) Opt() passes.OptLevel { return passes.O0 }

// TestCoalescingExecutesPipelineOnce is the acceptance test for request
// coalescing: N concurrent identical requests — separate Classify calls,
// as separate clients would issue — execute the pipeline exactly once,
// and every caller still receives the verdict.
func TestCoalescingExecutesPipelineOnce(t *testing.T) {
	det := &countingDetector{name: "counting", delay: 100 * time.Millisecond}
	reg := NewRegistry()
	reg.Register("m", det)
	eng := NewEngine(reg, Config{CacheSize: 128})
	defer eng.Close()

	progs, _ := corpusIR(t, 1)
	const clients = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := eng.Classify(context.Background(), "m", progs)
			if err != nil {
				errs <- err
				return
			}
			if res[0].Err != "" || !res[0].Incorrect {
				errs <- fmt.Errorf("bad coalesced result: %+v", res[0])
				return
			}
			errs <- nil
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := det.execs.Load(); got != 1 {
		t.Fatalf("pipeline executed %d times for %d concurrent identical requests, want exactly 1", got, clients)
	}
	st := eng.Stats()
	if st.Engine.PipelineExecs != 1 {
		t.Fatalf("engine counted %d pipeline execs, want 1", st.Engine.PipelineExecs)
	}
	if st.Cache == nil || st.Cache.Hits+st.Cache.Coalesced != clients-1 {
		t.Fatalf("cache stats %+v: want %d callers served by hit or coalesce", st.Cache, clients-1)
	}
}

// TestIntraBatchDuplicatesCoalesce: the same program repeated within one
// batch costs one pipeline execution.
func TestIntraBatchDuplicatesCoalesce(t *testing.T) {
	det := &countingDetector{name: "counting"}
	reg := NewRegistry()
	reg.Register("m", det)
	eng := NewEngine(reg, Config{CacheSize: 128})
	defer eng.Close()

	progs, _ := corpusIR(t, 1)
	batch := []Program{}
	for i := 0; i < 8; i++ {
		batch = append(batch, Program{Name: fmt.Sprintf("dup-%d", i), IR: progs[0].IR})
	}
	res, err := eng.Classify(context.Background(), "m", batch)
	if err != nil {
		t.Fatal(err)
	}
	if got := det.execs.Load(); got != 1 {
		t.Fatalf("pipeline executed %d times for 8 intra-batch duplicates, want 1", got)
	}
	for i, r := range res {
		if r.Err != "" || !r.Incorrect {
			t.Fatalf("result %d wrong: %+v", i, r)
		}
		if want := fmt.Sprintf("dup-%d", i); r.Name != want {
			t.Fatalf("result %d carries name %q, want %q (per-request names must survive caching)", i, r.Name, want)
		}
	}
}

// TestCacheHitSkipsPipelineAndKeepsVerdicts: resubmitting a batch serves
// it from the cache with identical verdicts.
func TestCacheHitSkipsPipelineAndKeepsVerdicts(t *testing.T) {
	reg := NewRegistry()
	reg.Register("ir2vec", trained(t))
	eng := NewEngine(reg, Config{CacheSize: 128})
	defer eng.Close()

	progs, _ := corpusIR(t, 6)
	first, err := eng.Classify(context.Background(), "ir2vec", progs)
	if err != nil {
		t.Fatal(err)
	}
	execsAfterFirst := eng.Stats().Engine.PipelineExecs
	second, err := eng.Classify(context.Background(), "ir2vec", progs)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Engine.PipelineExecs; got != execsAfterFirst {
		t.Fatalf("resubmission executed the pipeline (%d -> %d execs)", execsAfterFirst, got)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("cached verdict differs for %s: %+v vs %+v", progs[i].Name, first[i], second[i])
		}
	}
	st := eng.Stats()
	if st.Cache.Hits < int64(len(progs)) {
		t.Fatalf("cache hits = %d, want >= %d", st.Cache.Hits, len(progs))
	}
}

// TestDigestInsensitiveToFormatting: a whitespace-reformatted resubmission
// of the same program is a cache hit (the content-addressed contract).
func TestDigestInsensitiveToFormatting(t *testing.T) {
	det := &countingDetector{name: "counting"}
	reg := NewRegistry()
	reg.Register("m", det)
	eng := NewEngine(reg, Config{CacheSize: 128})
	defer eng.Close()

	progs, _ := corpusIR(t, 1)
	if _, err := eng.Classify(context.Background(), "m", progs); err != nil {
		t.Fatal(err)
	}
	messy := "; resubmitted by another client\n" + strings.ReplaceAll(progs[0].IR, "\n", "\n\n")
	if _, err := eng.Classify(context.Background(), "m", []Program{{Name: "messy", IR: messy}}); err != nil {
		t.Fatal(err)
	}
	if got := det.execs.Load(); got != 1 {
		t.Fatalf("reformatted duplicate re-ran the pipeline (%d execs, want 1)", got)
	}
}

// TestReloadInvalidatesOnlyThatModel: replacing one registry slot (the
// LoadFile path mpidetectd uses for model reloads) sweeps exactly that
// model's cached verdicts; other models keep serving hits.
func TestReloadInvalidatesOnlyThatModel(t *testing.T) {
	keep := &countingDetector{name: "keep"}
	reload := &countingDetector{name: "reload"}
	reg := NewRegistry()
	reg.Register("keep", keep)
	reg.Register("reload", reload)
	eng := NewEngine(reg, Config{CacheSize: 128})
	defer eng.Close()

	progs, _ := corpusIR(t, 2)
	ctx := context.Background()
	for _, model := range []string{"keep", "reload"} {
		if _, err := eng.Classify(ctx, model, progs); err != nil {
			t.Fatal(err)
		}
	}
	if keep.execs.Load() != 2 || reload.execs.Load() != 2 {
		t.Fatalf("warm-up execs keep=%d reload=%d, want 2/2", keep.execs.Load(), reload.execs.Load())
	}

	// Reload through the real artifact path.
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := core.SaveDetectorFile(path, trained(t)); err != nil {
		t.Fatal(err)
	}
	if err := reg.LoadFile("reload", path); err != nil {
		t.Fatal(err)
	}
	st, _ := eng.CacheStats()
	if st.Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2 (the reloaded model's entries)", st.Invalidations)
	}

	// The untouched model still serves from cache...
	if _, err := eng.Classify(ctx, "keep", progs); err != nil {
		t.Fatal(err)
	}
	if keep.execs.Load() != 2 {
		t.Fatalf("keep model re-ran the pipeline after an unrelated reload (%d execs)", keep.execs.Load())
	}
	// ...while the reloaded slot recomputes with the new detector.
	res, err := eng.Classify(ctx, "reload", progs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != "" {
			t.Fatalf("reloaded model errored: %s", r.Err)
		}
	}
	if reload.execs.Load() != 2 {
		t.Fatalf("old reloaded detector ran again after replacement (%d execs)", reload.execs.Load())
	}
	after, _ := eng.CacheStats()
	if after.Misses <= st.Misses {
		t.Fatal("reloaded model's resubmission should have missed the cache")
	}
}

// TestStatsCounters: Stats() exposes live engine and cache counters.
func TestStatsCounters(t *testing.T) {
	reg := NewRegistry()
	reg.Register("ir2vec", trained(t))
	eng := NewEngine(reg, Config{CacheSize: 128, CacheTTL: time.Hour})
	defer eng.Close()
	progs, _ := corpusIR(t, 3)
	for i := 0; i < 2; i++ {
		if _, err := eng.Classify(context.Background(), "ir2vec", progs); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Engine.Requests != 2 || st.Engine.Programs != 6 {
		t.Fatalf("engine counters %+v: want 2 requests, 6 programs", st.Engine)
	}
	if st.Cache == nil {
		t.Fatal("stats omitted cache counters with caching enabled")
	}
	if st.Cache.Hits != 3 || st.Cache.Misses != 3 || st.Cache.Size != 3 {
		t.Fatalf("cache counters %+v: want 3 hits, 3 misses, size 3", *st.Cache)
	}
	if st.Engine.PipelineExecs != 3 {
		t.Fatalf("pipeline execs = %d, want 3 (second batch fully cached)", st.Engine.PipelineExecs)
	}
	if st.Models != 1 {
		t.Fatalf("models = %d, want 1", st.Models)
	}
	if st.Jobs == nil || st.Jobs.QueueCapacity == 0 {
		t.Fatalf("stats missing jobs section: %+v", st.Jobs)
	}
	if st.Events == nil {
		t.Fatal("stats missing events section")
	}
}

// TestRegistryConcurrentAccess hammers Register/Get/Names/LoadFile from
// many goroutines; run under -race (CI does) to prove the table and the
// OnReplace hook path are data-race free.
func TestRegistryConcurrentAccess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := core.SaveDetectorFile(path, trained(t)); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	var replaced atomic.Int64
	reg.OnReplace(func(string) { replaced.Add(1) })

	const goroutines = 8
	const iters = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("model-%d", g%4)
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0:
					reg.Register(name, &countingDetector{name: name})
				case 1:
					if err := reg.LoadFile(name, path); err != nil {
						t.Errorf("LoadFile: %v", err)
						return
					}
				case 2:
					if d, ok := reg.Get(name); ok && d == nil {
						t.Error("Get returned nil detector")
						return
					}
				default:
					for _, n := range reg.Names() {
						if n == "" {
							t.Error("empty name in Names")
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// i%4 hits the two registering arms (0 and 1) on 26 of 50 iterations.
	const registersPerGoroutine = 26
	if got := replaced.Load(); got != goroutines*registersPerGoroutine {
		t.Fatalf("OnReplace fired %d times, want %d", got, goroutines*registersPerGoroutine)
	}
	if len(reg.Names()) != 4 {
		t.Fatalf("registry holds %d models, want 4", len(reg.Names()))
	}
}

// TestFollowerSurvivesLeaderCancellation: a coalesced follower with a
// healthy deadline must receive a real verdict even when the flight's
// leader times out mid-pipeline — led jobs run to completion for the
// followers' sake, and the leader's cancellation is its own problem.
func TestFollowerSurvivesLeaderCancellation(t *testing.T) {
	det := &countingDetector{name: "counting", delay: 300 * time.Millisecond}
	reg := NewRegistry()
	reg.Register("m", det)
	eng := NewEngine(reg, Config{CacheSize: 128, Workers: 1})
	defer eng.Close()
	progs, _ := corpusIR(t, 1)

	leaderErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_, err := eng.Classify(ctx, "m", progs)
		leaderErr <- err
	}()
	time.Sleep(100 * time.Millisecond) // leader enqueued and timed out; worker still computing
	res, err := eng.Classify(context.Background(), "m", progs)
	if err != nil {
		t.Fatalf("follower failed: %v", err)
	}
	if res[0].Err != "" || !res[0].Incorrect {
		t.Fatalf("follower inherited the leader's cancellation: %+v", res[0])
	}
	if !errors.Is(<-leaderErr, ErrTimeout) {
		t.Fatal("leader should have timed out")
	}
	if got := det.execs.Load(); got != 1 {
		t.Fatalf("pipeline ran %d times, want 1 (follower must ride the leader's execution)", got)
	}
}

// TestFollowerRetriesAbortedFlight: when a flight dies with a
// cancellation error before its job ever reached a worker (the
// enqueue-abort path), a parked follower re-runs the item on its own
// budget instead of reporting someone else's dead deadline.
func TestFollowerRetriesAbortedFlight(t *testing.T) {
	det := &countingDetector{name: "counting"}
	reg := NewRegistry()
	reg.Register("m", det)
	eng := NewEngine(reg, Config{CacheSize: 128})
	defer eng.Close()
	progs, _ := corpusIR(t, 1)

	// Become the leader by hand, park a real request on the flight, then
	// abort the flight the way a cancelled enqueue does.
	det2, gen, _ := reg.getWithGen("m")
	key := cacheKey("m", gen, core.DigestIR(det2, progs[0].IR))
	_, f, st := eng.cache.Join(key)
	if st != cache.Lead {
		t.Fatalf("join state %v, want Lead", st)
	}
	type classifyResult struct {
		res []Result
		err error
	}
	done := make(chan classifyResult, 1)
	go func() {
		res, err := eng.Classify(context.Background(), "m", progs)
		done <- classifyResult{res, err}
	}()
	time.Sleep(50 * time.Millisecond) // the request is parked on our flight
	eng.cache.Complete(f, Result{}, ctxErr(canceledCtx()))

	out := <-done
	if out.err != nil {
		t.Fatalf("follower failed outright: %v", out.err)
	}
	if out.res[0].Err != "" || !out.res[0].Incorrect {
		t.Fatalf("follower did not retry the aborted flight: %+v", out.res[0])
	}
	if got := det.execs.Load(); got != 1 {
		t.Fatalf("retry ran the pipeline %d times, want 1", got)
	}
}

func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestMidFlightReloadNeverServesStaleVerdicts: a Classify that captured
// the old detector and is still computing when the model is reloaded
// must not leave its verdict where the new model's requests can find it
// (generation-keyed entries + the invalidation sweep's no-store marking).
func TestMidFlightReloadNeverServesStaleVerdicts(t *testing.T) {
	old := &countingDetector{name: "old", delay: 200 * time.Millisecond}
	fresh := &countingDetector{name: "fresh"}
	reg := NewRegistry()
	reg.Register("m", old)
	eng := NewEngine(reg, Config{CacheSize: 128})
	defer eng.Close()
	progs, _ := corpusIR(t, 1)

	done := make(chan error, 1)
	go func() {
		_, err := eng.Classify(context.Background(), "m", progs)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // old detector is mid-pipeline
	reg.Register("m", fresh)          // reload while the old verdict is in flight
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Classify(context.Background(), "m", progs); err != nil {
		t.Fatal(err)
	}
	if got := fresh.execs.Load(); got != 1 {
		t.Fatalf("post-reload request executed the new detector %d times, want 1 (stale verdict served?)", got)
	}
	if old.execs.Load() != 1 {
		t.Fatalf("old detector ran %d times, want 1", old.execs.Load())
	}
}
