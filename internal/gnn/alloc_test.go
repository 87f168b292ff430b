package gnn

import "testing"

// predictBatchAllocs is the allocation ceiling per PredictProbsBatch call
// over mixGraphs(99). The tensor kernels are serial, so the count does
// not depend on GOMAXPROCS.
const predictBatchAllocs = 25

// TestPredictBatchAllocs guards the serving pass's allocation count: the
// compaction plan and preparation buffers are pooled with the tape, so a
// change that allocates per layer or per relation shows up here before it
// shows up as GC time in serving.
func TestPredictBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector (sync.Pool caching is disabled)")
	}
	gs := mixGraphs(99)
	m := benchModel(gs)
	m.PredictProbsBatch(gs) // warm the scratch pool
	allocs := testing.AllocsPerRun(20, func() { m.PredictProbsBatch(gs) })
	if allocs > predictBatchAllocs {
		t.Fatalf("PredictProbsBatch allocates %v times per call, want at most %d", allocs, predictBatchAllocs)
	}
}
