package serve

import (
	"context"
	"testing"
	"time"

	"mpidetect/internal/ast"
	"mpidetect/internal/core"
	"mpidetect/internal/store"
)

// boundedSpinIR is a correct program whose ranks burn ~3*iters
// interpreter steps in a compute loop before finalizing — the
// simulation-heavy shape the dynamic-analysis tier is slowest on.
func boundedSpinIR(tb testing.TB, iters int64) string {
	stmts := ast.MPIBoilerplate()
	stmts = append(stmts,
		ast.Decl("i", ast.Int, ast.I(0)),
		ast.While(ast.Lt(ast.Id("i"), ast.I(iters)),
			ast.Assign(ast.Id("i"), ast.Add(ast.Id("i"), ast.I(1)))),
		ast.Finalize(),
	)
	return progIR(tb, ast.MainProgram("spin", stmts...))
}

// benchEngine builds an engine over the shared trained detector.
func benchEngine(b *testing.B, cfg Config) *Engine {
	b.Helper()
	reg := NewRegistry()
	reg.Register("ir2vec", trained(b))
	eng := NewEngine(reg, cfg)
	b.Cleanup(eng.Close)
	return eng
}

// BenchmarkRepeatedWorkload is the PR's headline claim: a CI-style
// repetitive stream (the same batch resubmitted every iteration, as a CI
// system re-checking unchanged MPI codes would) with the content-
// addressed cache off vs on. The acceptance bar is >= 5x throughput with
// the cache enabled; in practice a hit skips parse, optimisation,
// embedding, and prediction entirely, so the observed gap is far larger.
// The "cache+store" mode runs the same warm stream with the durable
// tier mounted: steady-state hits are pure memory hits (the write-behind
// only sees fresh computes), so the store must cost nothing on the warm
// path — that is the regression this benchmark guards.
func BenchmarkRepeatedWorkload(b *testing.B) {
	for _, mode := range []struct {
		name  string
		cfg   Config
		store bool
	}{
		{"nocache", Config{}, false},
		{"cache", Config{CacheSize: 4096, CacheTTL: time.Hour}, false},
		{"cache+store", Config{CacheSize: 4096, CacheTTL: time.Hour}, true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			if mode.store {
				st, err := store.Open(b.TempDir(), store.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { st.Close() })
				mode.cfg.Store = st
			}
			eng := benchEngine(b, mode.cfg)
			progs, _ := corpusIR(b, 8)
			ctx := context.Background()
			// One warm pass so the cached mode measures the steady state.
			if _, err := eng.Classify(ctx, "ir2vec", progs); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Classify(ctx, "ir2vec", progs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(progs))*float64(b.N)/b.Elapsed().Seconds(), "programs/s")
		})
	}
}

// BenchmarkCoalescedClients: many concurrent clients submitting the same
// program. With coalescing, contended identical requests ride one
// pipeline execution (or a cache hit) instead of queueing N executions.
func BenchmarkCoalescedClients(b *testing.B) {
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"nocache", Config{}},
		{"coalesced", Config{CacheSize: 4096, CacheTTL: time.Hour}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			eng := benchEngine(b, mode.cfg)
			progs, _ := corpusIR(b, 1)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				ctx := context.Background()
				for pb.Next() {
					if _, err := eng.Classify(ctx, "ir2vec", progs); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkAnalyze measures the hybrid-analysis dynamic path: one
// program fanned out to the ML detector plus all four expert tools.
// "cold" invalidates the tool cache every iteration, so the one
// simulation itac and must share re-executes (sims/op 1); "cached"
// measures the warm steady state, where the acceptance contract is zero
// simulator executions per request. The gap is the entire cost of the
// dynamic tier.
func BenchmarkAnalyze(b *testing.B) {
	for _, mode := range []string{"cold", "cached"} {
		b.Run(mode, func(b *testing.B) {
			reg := NewRegistry()
			reg.Register("ir2vec", trained(b))
			eng := NewEngine(reg, Config{CacheSize: 4096, CacheTTL: time.Hour,
				Tools: DefaultTools(), SimWorkers: 2})
			b.Cleanup(eng.Close)
			req := AnalyzeRequest{Model: "ir2vec",
				Program: Program{Name: "pingpong", IR: pingpongIR(b)}}
			ctx := context.Background()
			if _, err := eng.Analyze(ctx, req); err != nil {
				b.Fatal(err)
			}
			simsBefore := eng.Stats().Analyze.SimExecs
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "cold" {
					for _, tool := range []string{"parcoach", "mpi-checker", "itac", "must"} {
						eng.InvalidateTool(tool)
					}
				}
				if _, err := eng.Analyze(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(eng.Stats().Analyze.SimExecs-simsBefore)/float64(b.N), "sims/op")
		})
	}
}

// BenchmarkAnalyzeDynamic isolates the dynamic tier on a simulation-
// heavy program (a compute loop that burns tens of thousands of
// interpreter steps per rank): "cold" invalidates the dynamic tools'
// verdicts every iteration so the request compiles the program and runs
// its shared simulation again (compiles/op 1, sims/op 1) — the number
// that tracks raw engine speed — while "warm" measures the cached steady
// state, whose contract is zero simulator executions and zero
// compilations per request.
func BenchmarkAnalyzeDynamic(b *testing.B) {
	for _, mode := range []string{"cold", "warm"} {
		b.Run(mode, func(b *testing.B) {
			reg := NewRegistry()
			reg.Register("ir2vec", trained(b))
			eng := NewEngine(reg, Config{CacheSize: 4096, CacheTTL: time.Hour,
				Tools: DefaultTools(), SimWorkers: 2})
			b.Cleanup(eng.Close)
			req := AnalyzeRequest{Model: "ir2vec",
				Tools:   []string{"itac", "must"},
				Program: Program{Name: "spinny", IR: boundedSpinIR(b, 20_000)}}
			ctx := context.Background()
			if _, err := eng.Analyze(ctx, req); err != nil {
				b.Fatal(err)
			}
			simsBefore := eng.Stats().Analyze.SimExecs
			compilesBefore := eng.Stats().Analyze.SimCompiles
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "cold" {
					eng.InvalidateTool("itac")
					eng.InvalidateTool("must")
				}
				if _, err := eng.Analyze(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
			stats := eng.Stats().Analyze
			b.ReportMetric(float64(stats.SimExecs-simsBefore)/float64(b.N), "sims/op")
			b.ReportMetric(float64(stats.SimCompiles-compilesBefore)/float64(b.N), "compiles/op")
		})
	}
}

// BenchmarkAnalyzeBatchStream measures the streaming batch tier on an
// 8-program batch against all four expert tools: "cold" sweeps the tool
// cache every iteration so every program re-runs its analyses, "warm"
// measures the steady state where the whole batch is answered from the
// verdict/tool caches. events/op confirms every program streamed a
// verdict; sims/op is the dynamic-tier work per batch: 8 cold, one
// simulation per program shared by itac and must, and 0 when warm.
func BenchmarkAnalyzeBatchStream(b *testing.B) {
	for _, mode := range []string{"cold", "warm"} {
		b.Run(mode, func(b *testing.B) {
			eng := benchEngine(b, Config{CacheSize: 4096, CacheTTL: time.Hour,
				Tools: DefaultTools(), SimWorkers: 2})
			progs := batchOf(b, 8)
			req := BatchRequest{Model: "ir2vec", Programs: progs}
			ctx := context.Background()
			stream := func() int {
				ch, err := eng.AnalyzeBatch(ctx, req)
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for ev := range ch {
					if ev.Err != "" {
						b.Fatalf("%s: %s", ev.Name, ev.Err)
					}
					n++
				}
				return n
			}
			stream() // one pass so warm measures the steady state
			simsBefore := eng.Stats().Analyze.SimExecs
			events := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "cold" {
					for _, tool := range eng.tools.Names() {
						eng.InvalidateTool(tool)
					}
				}
				events += stream()
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
			b.ReportMetric(float64(eng.Stats().Analyze.SimExecs-simsBefore)/float64(b.N), "sims/op")
		})
	}
}

// BenchmarkClassifyCold is the uncached cold path end to end: every
// program pays parse → optimise → embed → predict, nothing coalesces.
// A single worker makes the drain deterministic — the whole 8-program
// batch backs up behind the first job and classifies through one fused
// CheckModules pass — so this is the number the zero-copy parser and
// the batched forward pass move.
func BenchmarkClassifyCold(b *testing.B) {
	eng := benchEngine(b, Config{Workers: 1})
	progs, _ := corpusIR(b, 8)
	ctx := context.Background()
	if _, err := eng.Classify(ctx, "ir2vec", progs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Classify(ctx, "ir2vec", progs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(progs))*float64(b.N)/b.Elapsed().Seconds(), "programs/s")
}

// BenchmarkDigest isolates the per-request cost the cache adds on the hot
// path: digesting a program's textual IR without parsing it.
func BenchmarkDigest(b *testing.B) {
	det := trained(b)
	progs, _ := corpusIR(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := core.DigestIR(det, progs[0].IR); d == "" {
			b.Fatal("empty digest")
		}
	}
}
