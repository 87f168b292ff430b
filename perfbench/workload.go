package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mpidetect/internal/core"
	"mpidetect/internal/ir"
	"mpidetect/internal/mpisim"
	"mpidetect/internal/serve"
	"mpidetect/internal/store"
	"mpidetect/internal/verify"
)

// Load shape shared by every workload: one process, two closed-loop
// clients (each sends its next request only after the previous one
// returned, like CI callers waiting on verdicts), batches of eight.
const (
	clients      = 2
	batchSize    = 8
	analyzeRanks = 16
	// requestBudget is the engine's per-request timeout; a failed
	// request is charged this latency, so it misses every latency figure.
	requestBudget = 30 * time.Second
	// minRequests keeps at least ten samples beyond p99 in every run.
	minRequests = 1000
	// minBoots is the least number of engine boots behind setup_s.
	minBoots = 7
)

// spec describes one workload. Every run of a seed does the same work:
// passes × the same request list against a freshly booted engine in the
// same cache and store state. nominalPass sizes the pass count from
// --seconds on a 2-vCPU host; it is a constant, so the work never
// depends on how fast a run happens to go.
type spec struct {
	name, why   string
	gnn         bool // detector under test: ProGraML GNN, else IR2Vec+DT
	analyze     bool // Engine.Analyze with every tool, one program per request
	recheck     bool // ci_recheck: warm store, small cache, Zipf re-checks
	programs    int  // distinct programs per pass (working set for ci_recheck)
	requests    int  // requests per pass
	nominalPass time.Duration
}

var specs = []*spec{
	{name: "classify_cold", programs: 4096, requests: 512,
		nominalPass: 1500 * time.Millisecond,
		why:         "never-seen programs through IR2Vec+DT: every request misses the cache and runs parse, optimise, embed and predict, and the store only writes"},
	{name: "gnn_cold", gnn: true, programs: 1024, requests: 128,
		nominalPass: 1600 * time.Millisecond,
		why:         "never-seen programs through the GNN detector: the tensor forward pass and the worker's fused-batch drain dominate, IR2Vec code is idle"},
	{name: "ci_recheck", recheck: true, programs: 4096, requests: 8192,
		nominalPass: 1300 * time.Millisecond,
		why:         "Zipf(1.1) re-checks of 4096 stored programs through a 512-entry cache: only digest, cache and store hydration work, no pipeline runs"},
	{name: "analyze_dynamic", analyze: true, programs: 1024, requests: 1024,
		nominalPass: 1200 * time.Millisecond,
		why:         "one never-seen program per Analyze request with all four tools at 16 simulated ranks: the only workload that compiles and runs simulations"},
}

// model is the detector's registry name.
func (s *spec) model() string {
	if s.gnn {
		return "gnn"
	}
	return "ir2vec"
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// passes is the fixed pass count of a run of the given length.
func (s *spec) passes(seconds int) int {
	n := int(math.Round(float64(seconds) * float64(time.Second) / float64(s.nominalPass)))
	if min := (minRequests + s.requests - 1) / s.requests; n < min {
		n = min
	}
	return n
}

// toolVerdict is the part of a served tool verdict the oracle pins.
type toolVerdict struct {
	verdict string
	flagged bool
}

// bench holds one run's prepared inputs and oracle.
type bench struct {
	spec *spec
	seed int64
	dir  string // scratch directory for stores, removed at exit
	art  artifacts

	progs  []program
	reqs   [][]int // request -> program indices
	wire   [][]serve.Program
	expect []serve.Result // core.CheckIR verdict per program
	tools  [][]toolVerdict
	names  []string // tool names, in the order Analyze reports them

	recheckStore string // ci_recheck: the prepared durable store
	boots        int    // names each cold boot's fresh store directory
}

// prepare generates the run's programs from the seed and computes the
// oracle verdicts. None of it is timed.
func prepare(s *spec, seed int64, dir string, art artifacts) (*bench, error) {
	b := &bench{spec: s, seed: seed, dir: dir, art: art}
	progs, err := genPrograms(seed, s.programs)
	if err != nil {
		return nil, err
	}
	b.progs = progs
	det, err := core.LoadDetectorFile(b.artifact())
	if err != nil {
		return nil, err
	}
	b.expect = make([]serve.Result, len(progs))
	for i, p := range progs {
		v, err := core.CheckIR(det, p.ir)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", p.name, err)
		}
		b.expect[i] = serve.Result{Incorrect: v.Incorrect, Label: v.Label.String(), Confidence: v.Confidence}
	}
	switch {
	case s.recheck:
		b.reqs = zipfRequests(seed, len(progs), s.requests)
		if err := b.buildRecheckStore(); err != nil {
			return nil, err
		}
	case s.analyze:
		for i := range progs {
			b.reqs = append(b.reqs, []int{i})
		}
		if err := b.toolOracle(); err != nil {
			return nil, err
		}
	default:
		for i := 0; i < len(progs); i += batchSize {
			r := make([]int, 0, batchSize)
			for j := i; j < i+batchSize && j < len(progs); j++ {
				r = append(r, j)
			}
			b.reqs = append(b.reqs, r)
		}
	}
	b.wire = make([][]serve.Program, len(b.reqs))
	for i, r := range b.reqs {
		for _, j := range r {
			b.wire[i] = append(b.wire[i], serve.Program{Name: progs[j].name, IR: progs[j].ir})
		}
	}
	return b, nil
}

func (b *bench) artifact() string {
	if b.spec.gnn {
		return b.art.gnnPath
	}
	return b.art.ir2vecPath
}

// zipfRequests draws batches of program indices with Zipf(1.1)
// popularity; a seeded permutation decides which programs are popular.
func zipfRequests(seed int64, n, requests int) [][]int {
	r := rand.New(rand.NewSource(subSeed(seed, subSeeds-1)))
	perm := r.Perm(n)
	z := rand.NewZipf(r, 1.1, 1, uint64(n-1))
	reqs := make([][]int, requests)
	for i := range reqs {
		reqs[i] = make([]int, batchSize)
		for j := range reqs[i] {
			reqs[i][j] = perm[z.Uint64()]
		}
	}
	return reqs
}

// toolOracle runs every tool directly on each program (no wall budget),
// giving the verdict the engine must serve unless a wall-clock budget
// cut a simulation short.
func (b *bench) toolOracle() error {
	reg := serve.DefaultTools()
	b.names = reg.Names()
	cfg := mpisim.Config{Ranks: analyzeRanks, MaxSteps: verify.DefaultMaxSteps}
	b.tools = make([][]toolVerdict, len(b.progs))
	for i, p := range b.progs {
		m, err := ir.Parse(p.ir)
		if err != nil {
			return err
		}
		prog := mpisim.Compile(m)
		for _, name := range b.names {
			t, dynamic, _ := reg.Get(name)
			var v verify.Verdict
			if dynamic {
				v = t.(verify.ProgramChecker).CheckProgram(context.Background(), prog, cfg)
			} else {
				v = t.CheckModule(context.Background(), m, mpisim.Config{})
			}
			b.tools[i] = append(b.tools[i], toolVerdict{verdict: verdictClass(v), flagged: v.Flagged})
		}
	}
	return nil
}

// verdictClass names a tool verdict the way the serving API does.
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

// buildRecheckStore classifies the whole working set once and persists
// every verdict, checking each against the oracle. The timed phase then
// boots on this store and must hydrate, never compute.
func (b *bench) buildRecheckStore() error {
	b.recheckStore = filepath.Join(b.dir, "recheck-store")
	st, err := store.Open(b.recheckStore, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	reg := serve.NewRegistry()
	if err := reg.LoadFile(b.spec.model(), b.artifact()); err != nil {
		return err
	}
	eng := serve.NewEngine(reg, serve.Config{CacheSize: 2 * len(b.progs), Store: st,
		StoreQueue: 2 * len(b.progs), Timeout: requestBudget})
	err = b.classifyAll(eng)
	eng.Close()
	if err != nil {
		return err
	}
	ss, _ := eng.StoreStats()
	if ss.Classify.Persisted != int64(len(b.progs)) {
		return fmt.Errorf("preparation persisted %d of %d verdicts", ss.Classify.Persisted, len(b.progs))
	}
	return nil
}

func (b *bench) classifyAll(eng *serve.Engine) error {
	for i := 0; i < len(b.progs); i += batchSize {
		var batch []serve.Program
		for j := i; j < i+batchSize && j < len(b.progs); j++ {
			batch = append(batch, serve.Program{Name: b.progs[j].name, IR: b.progs[j].ir})
		}
		res, err := eng.Classify(context.Background(), b.spec.model(), batch)
		if err != nil {
			return err
		}
		for k, r := range res {
			if !sameResult(r, b.expect[i+k]) {
				return fmt.Errorf("preparation verdict for %s differs from core.CheckIR: %w", b.progs[i+k].name, errIncorrect)
			}
		}
	}
	return nil
}

func sameResult(got, want serve.Result) bool {
	return got.Err == "" && got.Incorrect == want.Incorrect && got.Label == want.Label &&
		math.Float64bits(got.Confidence) == math.Float64bits(want.Confidence)
}

// instance is one booted engine with its store.
type instance struct {
	eng     *serve.Engine
	st      *store.Store
	dir     string
	ownsDir bool
}

// boot is the daemon's boot path, the part setup_s times: load the saved
// artifact, open the store (a replay for ci_recheck, empty otherwise) and
// start the engine.
func (b *bench) boot() (*instance, error) {
	in := &instance{dir: b.recheckStore}
	if !b.spec.recheck {
		b.boots++
		in.dir = filepath.Join(b.dir, fmt.Sprintf("store-%d", b.boots))
		in.ownsDir = true
	}
	reg := serve.NewRegistry()
	if err := reg.LoadFile(b.spec.model(), b.artifact()); err != nil {
		return nil, err
	}
	st, err := store.Open(in.dir, store.Options{})
	if err != nil {
		return nil, err
	}
	in.st = st
	cfg := serve.Config{Workers: clients, Timeout: requestBudget, Store: st,
		CacheSize: 4 * b.spec.programs}
	if b.spec.recheck {
		cfg.CacheSize = 512
	}
	if b.spec.analyze {
		cfg.Tools = serve.DefaultTools()
	}
	in.eng = serve.NewEngine(reg, cfg)
	return in, nil
}

// close drains the engine (write-behind persists included), then
// releases the store.
func (in *instance) close() {
	in.eng.Close()
	in.release()
}

// release closes the store of a drained engine and removes a scratch one.
func (in *instance) release() {
	in.st.Close()
	if in.ownsDir {
		os.RemoveAll(in.dir)
	}
}

// outcome is what one request returned.
type outcome struct {
	results []serve.Result
	analyze *serve.AnalyzeResponse
	err     error
}

// do sends request i and records its outcome.
func (b *bench) do(in *instance, i int, out []outcome) {
	ctx := context.Background()
	if b.spec.analyze {
		resp, err := in.eng.Analyze(ctx, serve.AnalyzeRequest{Model: b.spec.model(),
			Ranks: analyzeRanks, Program: b.wire[i][0]})
		out[i] = outcome{analyze: resp, err: err}
		return
	}
	res, err := in.eng.Classify(ctx, b.spec.model(), b.wire[i])
	out[i] = outcome{results: res, err: err}
}

// closedLoop runs n requests from the fixed list on two closed-loop
// clients and returns each request's latency.
func closedLoop(n int, do func(i int)) []time.Duration {
	lat := make([]time.Duration, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t := time.Now()
				do(i)
				lat[i] = time.Since(t)
			}
		}()
	}
	wg.Wait()
	return lat
}

// verdicts is the oracle's reading of one pass's outcomes.
type verdicts struct {
	failed       int // requests that errored, were shed or timed out, or carried a per-program error
	wallTimeouts int // simulations cut short by the wall-clock budget
	programs     int // programs answered by successful requests
	distinct     int // distinct programs answered
	matches      int // distinct programs whose verdict matches ground truth
	failedReq    []bool
	seen         []bool
}

// answer records one served verdict of program p. Accuracy counts each
// program once, so Zipf repeats on ci_recheck do not weight it.
func (v *verdicts) answer(p int, incorrect, truth bool) {
	v.programs++
	if !v.seen[p] {
		v.seen[p] = true
		v.distinct++
		if incorrect == truth {
			v.matches++
		}
	}
}

// errIncorrect marks a run whose outputs or work failed a check.
var errIncorrect = errors.New("incorrect")

// check compares every served verdict with the oracle. A failed request
// is counted, never compared; a wrong verdict fails the run.
func (b *bench) check(out []outcome) (verdicts, error) {
	v := verdicts{failedReq: make([]bool, len(out)), seen: make([]bool, len(b.progs))}
	for i, o := range out {
		ok, err := b.checkOne(i, o, &v)
		if err != nil {
			return v, fmt.Errorf("request %d: %w", i, err)
		}
		if !ok {
			v.failed++
			v.failedReq[i] = true
		}
	}
	return v, nil
}

func (b *bench) checkOne(i int, o outcome, v *verdicts) (bool, error) {
	if o.err != nil {
		return false, nil
	}
	if b.spec.analyze {
		p := b.reqs[i][0]
		r := o.analyze
		if r.ML.Err != "" {
			return false, nil
		}
		if !sameResult(r.ML, b.expect[p]) {
			return false, fmt.Errorf("ML verdict of %s: %w", b.progs[p].name, errIncorrect)
		}
		if len(r.Tools) != len(b.names) {
			return false, fmt.Errorf("%d tool verdicts, want %d: %w", len(r.Tools), len(b.names), errIncorrect)
		}
		for k, tv := range r.Tools {
			want := b.tools[p][k]
			if tv.Tool != b.names[k] {
				return false, fmt.Errorf("tool %q at position %d, want %q: %w", tv.Tool, k, b.names[k], errIncorrect)
			}
			if tv.Verdict == "timeout" && want.verdict != "timeout" {
				v.wallTimeouts++
				return false, nil
			}
			if tv.Verdict != want.verdict || tv.Flagged != want.flagged {
				return false, fmt.Errorf("%s verdict of %s is %s, oracle %s: %w",
					tv.Tool, b.progs[p].name, tv.Verdict, want.verdict, errIncorrect)
			}
		}
		v.answer(p, r.Ensemble.Incorrect, b.progs[p].incorrect)
		return true, nil
	}
	if len(o.results) != len(b.reqs[i]) {
		return false, fmt.Errorf("%d results for %d programs: %w", len(o.results), len(b.reqs[i]), errIncorrect)
	}
	for _, r := range o.results {
		if r.Err != "" {
			return false, nil
		}
	}
	for k, r := range o.results {
		p := b.reqs[i][k]
		if !sameResult(r, b.expect[p]) {
			return false, fmt.Errorf("verdict of %s: %w", b.progs[p].name, errIncorrect)
		}
		v.answer(p, r.Incorrect, b.progs[p].incorrect)
	}
	return true, nil
}
