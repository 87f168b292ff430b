package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mpidetect/internal/core"
	"mpidetect/internal/graphs"
	"mpidetect/internal/ir"
	"mpidetect/internal/ir2vec"
	"mpidetect/internal/mpisim"
	"mpidetect/internal/passes"
	"mpidetect/internal/serve"
	"mpidetect/internal/store"
	"mpidetect/internal/verify"
)

// replayPrograms is how many of the run's programs the traced replay
// pushes through the stage functions.
const replayPrograms = 256

// span is one timed call into a layer, recorded by the benchmark's own
// code around a public function. Spans of one replayed request share
// req; a root span has parent -1.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	N      int32  `json:"programs"` // programs the call covered
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; with on false it records nothing, which
// is the untraced baseline the overhead is measured against.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, req, parent int32, n int) int32 {
	if !t.on {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, N: int32(n),
		Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// layerTime is the self time and call/program counts of one span name.
type layerTime struct {
	self            time.Duration
	calls, programs int
}

// selfTimes folds spans into per-name self time: a span's duration
// minus the durations of its children.
func selfTimes(spans []span) map[string]*layerTime {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerTime{}
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.self += time.Duration(s.End - s.Start - child[i])
		lt.calls++
		lt.programs += int(s.N)
	}
	return out
}

// replayer pushes programs through the public stage functions of every
// layer: both detectors at their own optimisation levels, the standalone
// IR2Vec encoder, graph building, simulator compile and runs at 16 ranks
// per dynamic tool, and the static tools.
type replayer struct {
	det     core.Detector // the workload's detector (digest, infer)
	irDet   core.BatchDetector
	gnnDet  core.BatchDetector
	enc     *ir2vec.Encoder
	dynamic []verify.ProgramChecker
	dynName []string
	static  []verify.ModuleChecker
	statNm  []string
	check   func(p int, v core.Verdict) error // oracle for the workload detector
}

func (b *bench) newReplayer() (*replayer, error) {
	irDet, err := core.LoadDetectorFile(b.art.ir2vecPath)
	if err != nil {
		return nil, err
	}
	gnnDet, err := core.LoadDetectorFile(b.art.gnnPath)
	if err != nil {
		return nil, err
	}
	enc, err := loadEncoder(b.art.encoderPath)
	if err != nil {
		return nil, err
	}
	rp := &replayer{irDet: irDet.(core.BatchDetector), gnnDet: gnnDet.(core.BatchDetector), enc: enc}
	rp.det = rp.irDet
	if b.spec.gnn {
		rp.det = rp.gnnDet
	}
	rp.check = func(p int, v core.Verdict) error {
		want := b.expect[p]
		got := serve.Result{Incorrect: v.Incorrect, Label: v.Label.String(), Confidence: v.Confidence}
		if !sameResult(got, want) {
			return fmt.Errorf("replayed verdict of %s differs from core.CheckIR: %w", b.progs[p].name, errIncorrect)
		}
		return nil
	}
	tools := serve.DefaultTools()
	for _, name := range tools.Names() {
		t, dynamic, _ := tools.Get(name)
		if dynamic {
			rp.dynamic = append(rp.dynamic, t.(verify.ProgramChecker))
			rp.dynName = append(rp.dynName, "mpisim.run/"+name)
		} else {
			rp.static = append(rp.static, t)
			rp.statNm = append(rp.statNm, "verify.static/"+name)
		}
	}
	return rp, nil
}

func optSpan(d core.Detector) string { return "passes.optimize/" + d.Opt().String() }

// request replays one batch (program indices idx of progs) in stage
// order: digest, parse, optimise, encode / graph build / infer, then
// simulator compile and one run per dynamic tool, then static tools.
func (rp *replayer) request(tr *tracer, req int32, progs []program, idx []int) error {
	root := tr.begin("request", req, -1, len(idx))
	defer tr.end(root)
	irMods := make([]*ir.Module, len(idx))
	gnnMods := make([]*ir.Module, len(idx))
	raw := make([]*ir.Module, len(idx))
	stage := func(name string, n int, f func() error) error {
		s := tr.begin(name, req, root, n)
		err := f()
		tr.end(s)
		return err
	}
	parse := func(dst []*ir.Module, k int) error {
		return stage("ir.parse", 1, func() (err error) {
			dst[k], err = ir.Parse(progs[idx[k]].ir)
			return err
		})
	}
	for k := range idx {
		src := progs[idx[k]].ir
		stage("core.digest", 1, func() error { core.DigestIR(rp.det, src); return nil })
		for _, m := range []struct {
			dst []*ir.Module
			det core.Detector
		}{{irMods, rp.irDet}, {gnnMods, rp.gnnDet}} {
			if err := parse(m.dst, k); err != nil {
				return err
			}
			stage(optSpan(m.det), 1, func() error { passes.Optimize(m.dst[k], m.det.Opt()); return nil })
		}
		if err := parse(raw, k); err != nil {
			return err
		}
	}
	n := len(idx)
	stage("ir2vec.encode", n, func() error { rp.enc.EncodeBatch(irMods); return nil })
	var irV, gnnV []core.Verdict
	if err := stage("core.infer/ir2vec", n, func() (err error) {
		irV, err = rp.irDet.CheckModules(irMods)
		return err
	}); err != nil {
		return err
	}
	stage("graphs.build", n, func() error {
		for _, m := range gnnMods {
			graphs.Build(m)
		}
		return nil
	})
	if err := stage("core.infer/gnn", n, func() (err error) {
		gnnV, err = rp.gnnDet.CheckModules(gnnMods)
		return err
	}); err != nil {
		return err
	}
	vs := irV
	if rp.det == rp.gnnDet {
		vs = gnnV
	}
	for k, p := range idx {
		if err := rp.check(p, vs[k]); err != nil {
			return err
		}
	}
	cfg := mpisim.Config{Ranks: analyzeRanks, MaxSteps: verify.DefaultMaxSteps}
	ctx := context.Background()
	for k := range idx {
		var prog *mpisim.Program
		stage("mpisim.compile", 1, func() error { prog = mpisim.Compile(raw[k]); return nil })
		for t, tool := range rp.dynamic {
			stage(rp.dynName[t], 1, func() error { tool.CheckProgram(ctx, prog, cfg); return nil })
		}
		for t, tool := range rp.static {
			stage(rp.statNm[t], 1, func() error { tool.CheckModule(ctx, raw[k], mpisim.Config{}); return nil })
		}
	}
	return nil
}

// replay runs the first replayPrograms programs in batches of eight.
// Each batch runs twice untraced and twice traced, the order alternating
// from batch to batch, so host drift falls on both sides alike; the two
// totals give the tracing overhead for the same programs.
func (rp *replayer) replay(tr *tracer, progs []program) (traced, untraced time.Duration, err error) {
	n := min(replayPrograms, len(progs))
	for i := 0; i < n; i += batchSize {
		idx := make([]int, 0, batchSize)
		for j := i; j < i+batchSize && j < n; j++ {
			idx = append(idx, j)
		}
		req := int32(i / batchSize)
		for round := int32(0); round < 4; round++ {
			tr.on = (req+round)%2 == 1
			start := time.Now()
			if err := rp.request(tr, req, progs, idx); err != nil {
				return 0, 0, err
			}
			if tr.on {
				traced += time.Since(start)
			} else {
				untraced += time.Since(start)
			}
		}
	}
	tr.on = true
	return traced, untraced, nil
}

// storePhase reopens the store the engine phase left behind (the replay
// store.replay_s times) and loads every persisted classify verdict
// through a store.Tier (store.load_us), checking each decodes.
func storePhase(tr *tracer, dir string) (replay time.Duration, keys int, err error) {
	root := tr.begin("store", -1, -1, 0)
	defer tr.end(root)
	t0 := time.Now()
	s := tr.begin("store.open", -1, root, 0)
	st, err := store.Open(dir, store.Options{})
	tr.end(s)
	replay = time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	prefix := "classify" + store.NamespaceSep
	var list []string
	st.Range(func(key string, _ uint64) bool {
		if strings.HasPrefix(key, prefix) {
			list = append(list, strings.TrimPrefix(key, prefix))
		}
		return true
	})
	sort.Strings(list)
	tier := store.NewTier[serve.Result](st, "classify", store.TierOptions{})
	defer tier.Close()
	for _, k := range list {
		s := tr.begin("store.load", -1, root, 1)
		_, ok, err := tier.Load(k)
		tr.end(s)
		if err != nil || !ok {
			return 0, 0, fmt.Errorf("loading a persisted verdict: ok=%v err=%v: %w", ok, err, errIncorrect)
		}
	}
	return replay, len(list), nil
}

// allocsPer counts heap allocations per call of f over n calls.
func allocsPer(n int, f func(i int)) float64 {
	m0 := mallocs()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(mallocs()-m0) / float64(n)
}

// traceRun is the per-layer run: one engine pass for the counters, then
// the stage replay untraced and traced (twice each, interleaved) for the
// layer times and the tracing overhead, then the store phase.
func (b *bench) traceRun(dir string, host0 hostTicks) (*report, error) {
	r, in, err := b.pass(true)
	if err != nil {
		return nil, err
	}
	heapMB := heapRetainedMB()
	in.ownsDir = false // the store phase reopens it; the scratch directory goes at exit
	in.release()
	storeDir := in.dir

	rp, err := b.newReplayer()
	if err != nil {
		return nil, err
	}
	tr := &tracer{t0: time.Now()}
	traced, untraced, err := rp.replay(tr, b.progs)
	if err != nil {
		return nil, err
	}
	replay, keys, err := storePhase(tr, storeDir)
	if err != nil {
		return nil, err
	}
	sample := b.progs[:min(replayPrograms, len(b.progs))]
	parseAllocs := allocsPer(len(sample), func(i int) { ir.Parse(sample[i].ir) })
	mods := make([]*ir.Module, len(sample))
	for i, p := range sample {
		mods[i] = ir.MustParse(p.ir)
	}
	optAllocs := allocsPer(len(mods), func(i int) { passes.Optimize(mods[i], rp.det.Opt()) })

	lt := selfTimes(tr.spans)
	perCall := func(names ...string) float64 {
		var d time.Duration
		n := 0
		for _, name := range names {
			if l := lt[name]; l != nil {
				d += l.self
				n += l.calls
			}
		}
		return us(d, n)
	}
	perProg := func(name string) float64 {
		if l := lt[name]; l != nil {
			return us(l.self, l.programs)
		}
		return 0
	}
	infer := "core.infer/ir2vec"
	if b.spec.gnn {
		infer = "core.infer/gnn"
	}
	staticUs := 0.0
	for _, name := range rp.statNm {
		staticUs += perProg(name)
	}
	d := r.delta
	lookups := d.hits + d.misses
	preds := d.batched + d.singleton
	prog := float64(max(r.v.programs, 1))
	steal := stealRatio(host0, readHostTicks())
	metrics := map[string]metric{
		"ir.parse_us":                   {perCall("ir.parse"), "us"},
		"ir.parse_allocs":               {parseAllocs, "count"},
		"passes.optimize_us":            {perCall(optSpan(rp.det)), "us"},
		"passes.optimize_allocs":        {optAllocs, "count"},
		"ir2vec.encode_us":              {perProg("ir2vec.encode"), "us"},
		"graphs.build_us":               {perProg("graphs.build"), "us"},
		"core.infer_us":                 {perProg(infer), "us"},
		"gnn.forward_us":                {perProg("core.infer/gnn") - perProg("graphs.build"), "us"},
		"core.digest_us":                {perCall("core.digest"), "us"},
		"cache.hit_ratio":               {ratio(d.hits, lookups), "ratio"},
		"cache.hydration_ratio":         {ratio(d.hydrations, lookups), "ratio"},
		"cache.evictions":               {float64(d.evictions), "count"},
		"store.load_us":                 {perCall("store.load"), "us"},
		"store.replay_s":                {replay.Seconds(), "s"},
		"store.appends_per_prog":        {float64(d.appends) / prog, "count"},
		"store.persist_dropped":         {float64(d.persistDropped), "count"},
		"serve.pipeline_execs_per_prog": {float64(d.pipelineExecs) / prog, "count"},
		"serve.batch_fill_mean":         {ratio(preds, d.drains), "count"},
		"serve.batched_share":           {ratio(d.batched, preds), "ratio"},
		"serve.shed_requests":           {float64(d.shed), "count"},
		"mpisim.compile_us":             {perCall("mpisim.compile"), "us"},
		"mpisim.run_us":                 {perCall(rp.dynName...), "us"},
		"mpisim.sims_per_prog":          {float64(d.simExecs) / prog, "count"},
		"mpisim.sim_timeouts":           {float64(r.v.wallTimeouts), "count"},
		"verify.static_us":              {staticUs, "us"},
		"runtime.gc_cpu_share":          {r.gc, "ratio"},
		"runtime.heap_retained_mb":      {heapMB, "MB"},
		"host.steal_ratio":              {steal, "ratio"},
		"trace.overhead_ratio":          {traced.Seconds() / untraced.Seconds(), "ratio"},
	}
	spanFile, err := writeSpans(dir, b, tr.spans)
	if err != nil {
		return nil, err
	}

	fmt.Printf("perfbench %s seed=%d traced: engine pass of %d requests, replay of %d programs (each batch twice untraced, twice traced), %d stored verdicts loaded\n",
		b.spec.name, b.seed, len(b.reqs), len(sample), keys)
	fmt.Printf("  requests attempted=%d succeeded=%d failed=%d; %d spans written to %s\n",
		len(r.lat), len(r.lat)-r.v.failed, r.v.failed, len(tr.spans), spanFile)
	fmt.Printf("  tracing overhead: traced %.3fs vs untraced %.3fs for the same programs (ratio %.4f)\n",
		traced.Seconds(), untraced.Seconds(), traced.Seconds()/untraced.Seconds())
	fmt.Printf("  ir2vec.encode_us times a standalone encoder built with the IR2Vec detector's config;\n")
	fmt.Printf("  gnn.forward_us is derived: core.infer/gnn minus graphs.build per program;\n")
	fmt.Printf("  mpisim.sim_timeouts counts wall-budget timeouts (%d step-budget timeouts are tool verdicts)\n",
		d.simTimeouts-int64(r.v.wallTimeouts))
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-32s %14.4f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	return &report{Correct: true, Attempted: len(r.lat), Failed: r.v.failed, Metrics: metrics}, nil
}

func us(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(time.Microsecond) / float64(n)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// writeSpans writes the kept spans, one JSON object a line.
func writeSpans(dir string, b *bench, spans []span) (string, error) {
	td := filepath.Join(dir, "traces")
	if err := os.MkdirAll(td, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(td, fmt.Sprintf("%s-seed%d.jsonl", b.spec.name, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
