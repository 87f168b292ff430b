package passes_test

import (
	"math"
	"sync"
	"testing"

	"mpidetect/internal/core"
	"mpidetect/internal/dataset"
	"mpidetect/internal/gnn"
	"mpidetect/internal/ir"
	"mpidetect/internal/irgen"
	"mpidetect/internal/passes"
)

// releaseSources lowers MBI and CorrBench programs from generator seed
// 61, which no other test draws from, to textual IR once per test binary:
// the serving wire format, which is what gets parsed and released.
var (
	releaseOnce sync.Once
	releaseSrcs []string
)

func releaseSources(tb testing.TB) []string {
	tb.Helper()
	releaseOnce.Do(func() {
		d := dataset.Merge("release", dataset.GenerateMBI(61), dataset.GenerateCorrBench(61, false))
		for _, c := range d.Codes {
			releaseSrcs = append(releaseSrcs, ir.Print(irgen.MustLower(c.Prog)))
		}
	})
	return releaseSrcs
}

// TestParseOptimizeReleaseAllocs pins the steady state of request-scoped
// IR memory: once the free list is warm, parsing a program, optimising it
// at -Os and releasing it allocates only the Module itself, the
// optimiser's new names and the constants it folds. Measured 20.4
// allocations per program on go1.24 (about 140 when the parser's chunks,
// the inliner's clones and Mem2Reg's phis came from the heap).
func TestParseOptimizeReleaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds poison released arenas instead of recycling them")
	}
	srcs := releaseSources(t)
	run := func() {
		for _, src := range srcs {
			m := ir.MustParse(src)
			passes.Optimize(m, passes.Os)
			m.Release()
		}
	}
	run() // warm the free list and the pass scratch
	perProg := testing.AllocsPerRun(3, run) / float64(len(srcs))
	if perProg > 24 {
		t.Fatalf("Parse -> Optimize(Os) -> Release allocates %.1f times per program, want <= 24", perProg)
	}
}

// TestReleaseInterleavedVerdicts is the differential check of arena
// recycling: 500+ programs classified by an IR2Vec detector (-Os) and a
// GNN detector (-O0) while modules are released and their arenas reused
// underneath the live ones get exactly the verdicts of a run that never
// releases, bit for bit.
func TestReleaseInterleavedVerdicts(t *testing.T) {
	corpus := dataset.GenerateCorrBench(62, false)
	train := &dataset.Dataset{Name: corpus.Name}
	perLabel := map[dataset.Label]int{}
	for _, c := range corpus.Codes {
		if perLabel[c.Label] < 20 {
			perLabel[c.Label]++
			train.Codes = append(train.Codes, c)
		}
	}
	irCfg := core.DefaultIR2VecConfig()
	irCfg.Dim = 48
	irDet, err := core.TrainIR2Vec(train, irCfg)
	if err != nil {
		t.Fatal(err)
	}
	gnnCfg := core.DefaultGNNConfig()
	gnnCfg.Model = gnn.Config{EmbedDim: 8, Hidden: []int{12, 8}, LR: 3e-3,
		Epochs: 1, BatchSize: 8, Seed: 1, Workers: 1}
	gnnDet, err := core.TrainGNN(train, gnnCfg)
	if err != nil {
		t.Fatal(err)
	}
	var srcs []string
	for i, src := range releaseSources(t) {
		if i%4 == 0 {
			srcs = append(srcs, src)
		}
	}
	if len(srcs) < 500 {
		t.Fatalf("only %d programs; want 500+", len(srcs))
	}
	for _, det := range []core.Detector{irDet, gnnDet} {
		parse := func(src string) *ir.Module {
			m := ir.MustParse(src)
			passes.Optimize(m, det.Opt())
			return m
		}
		check := func(ms ...*ir.Module) []core.Verdict {
			vs, err := det.CheckModules(ms)
			if err != nil {
				t.Fatal(err)
			}
			return vs
		}
		want := make([]core.Verdict, len(srcs))
		distinct := map[core.Verdict]bool{}
		for i, src := range srcs {
			want[i] = check(parse(src))[0]
			distinct[want[i]] = true
		}
		if len(distinct) < 2 {
			t.Fatalf("%s gives every program the verdict %+v; want verdicts that differ", det.Name(), want[0])
		}
		same := func(i int, got core.Verdict) {
			w := want[i]
			if got.Incorrect != w.Incorrect || got.Label != w.Label ||
				math.Float64bits(got.Confidence) != math.Float64bits(w.Confidence) {
				t.Fatalf("%s program %d: verdict %+v with releases, %+v without", det.Name(), i, got, w)
			}
		}
		// One module stays live while the next is parsed into the
		// arena the one before it released; then batches of four are
		// classified together and released in reverse order.
		prev := parse(srcs[0])
		same(0, check(prev)[0])
		half := len(srcs) / 2
		for i := 1; i < half; i++ {
			m := parse(srcs[i])
			same(i, check(m)[0])
			prev.Release()
			prev = m
		}
		prev.Release()
		for i := half; i < len(srcs); i += 4 {
			end := min(i+4, len(srcs))
			ms := make([]*ir.Module, 0, 4)
			for _, src := range srcs[i:end] {
				ms = append(ms, parse(src))
			}
			for k, v := range check(ms...) {
				same(i+k, v)
			}
			for k := len(ms) - 1; k >= 0; k-- {
				ms[k].Release()
			}
		}
	}
}
