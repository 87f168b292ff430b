package gnn

import (
	"runtime"
	"testing"
)

// denseAllocs are the allocations per PredictProbsBatch call over
// mixGraphs(99) of the dense inference pass that row compaction replaced,
// by GOMAXPROCS: the matmul kernels fan out to that many goroutines and
// each fan-out allocates, so the count grows with the host.
var denseAllocs = []struct {
	procs  int
	allocs float64
}{{1, 247}, {2, 422}, {4, 554}, {8, 818}}

// TestPredictBatchAllocs guards the serving pass's allocation count: the
// compaction plan and preparation buffers are pooled with the tape, so a
// change that allocates per layer or per relation shows up here before it
// shows up as GC time in serving.
func TestPredictBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector (sync.Pool caching is disabled)")
	}
	procs := runtime.GOMAXPROCS(0)
	ceiling := -1.0
	for _, d := range denseAllocs {
		if d.procs >= procs {
			ceiling = d.allocs
			break
		}
	}
	if ceiling < 0 {
		t.Skipf("no dense-pass allocation count recorded for GOMAXPROCS=%d", procs)
	}
	gs := mixGraphs(99)
	m := benchModel(gs)
	m.PredictProbsBatch(gs) // warm the scratch pool
	allocs := testing.AllocsPerRun(20, func() { m.PredictProbsBatch(gs) })
	if allocs > ceiling {
		t.Fatalf("PredictProbsBatch allocates %v times per call, the dense pass %v", allocs, ceiling)
	}
}
