// Allocation counts are not meaningful under the race detector, which
// disables sync.Pool caching.

//go:build !race

package graphs

import (
	"testing"

	"mpidetect/internal/dataset"
	"mpidetect/internal/ir"
	"mpidetect/internal/irgen"
	"mpidetect/internal/passes"
)

// buildResolvedAllocs is the allocation ceiling per BuildResolved call
// over corpus programs: the Graph and its exact-size Nodes, TokID and
// Edges. Growing any of them by append, or allocating per node or edge,
// exceeds it.
const buildResolvedAllocs = 4

// TestBuildResolvedAllocs guards the serving graph build's allocations:
// the pooled builder collects nodes, token ids and edges in its own
// scratch and hands each out once.
func TestBuildResolvedAllocs(t *testing.T) {
	d := dataset.Merge("corpus", dataset.GenerateMBI(7), dataset.GenerateCorrBench(7, false))
	var mods []*ir.Module
	var gs []*Graph
	for i, c := range d.Shuffled(7)[:32] {
		m := irgen.MustLower(c.Prog)
		if i%2 == 1 {
			passes.Optimize(m, passes.Os)
		}
		mods = append(mods, m)
		gs = append(gs, Build(m))
	}
	v := BuildVocab(gs)
	for _, m := range mods {
		BuildResolved(m, v) // warm the pooled builder
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, m := range mods {
			BuildResolved(m, v)
		}
	})
	if per := allocs / float64(len(mods)); per > buildResolvedAllocs {
		t.Fatalf("BuildResolved allocates %.2f times per program, want at most %d", per, buildResolvedAllocs)
	}
}
