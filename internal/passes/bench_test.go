package passes_test

import (
	"testing"

	"mpidetect/internal/dataset"
	"mpidetect/internal/ir"
	"mpidetect/internal/irgen"
	"mpidetect/internal/passes"
)

// benchSources returns n MBI and CorrBench programs as printed,
// unoptimised IR: what a serving backend parses and then optimises.
func benchSources(tb testing.TB, n int) []string {
	tb.Helper()
	d := dataset.Merge("bench", dataset.GenerateMBI(7), dataset.GenerateCorrBench(7, false))
	codes := d.Shuffled(7)
	if len(codes) < n {
		tb.Fatalf("corpus has %d programs, want %d", len(codes), n)
	}
	srcs := make([]string, n)
	for i, c := range codes[:n] {
		srcs[i] = ir.Print(irgen.MustLower(c.Prog))
	}
	return srcs
}

// BenchmarkOptimize prices the optimiser alone on 256 programs parsed
// from printed IR, as serving sees them. Parsing runs with the timer
// stopped; one op optimises all 256 modules.
func BenchmarkOptimize(b *testing.B) {
	srcs := benchSources(b, 256)
	mods := make([]*ir.Module, len(srcs))
	for _, lvl := range []passes.OptLevel{passes.O2, passes.Os} {
		b.Run(lvl.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j, src := range srcs {
					mods[j] = ir.MustParse(src)
				}
				b.StartTimer()
				for _, m := range mods {
					passes.Optimize(m, lvl)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(srcs)), "µs/prog")
		})
	}
}
