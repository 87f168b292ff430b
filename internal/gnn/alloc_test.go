package gnn

import "testing"

// predictBatchAllocs is the allocation ceiling per PredictProbsBatch call
// over mixGraphs(99). The tensor kernels are serial, so the count does
// not depend on GOMAXPROCS.
const predictBatchAllocs = 19

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

// predictBatchArenaFloats is the ceiling on the floats one forward pass
// over mixGraphs(99) takes from its tape's arena. It is the measured
// figure itself, which depends only on the batch's shapes and so is the
// same on every host: any matrix added to the pass exceeds it.
const predictBatchArenaFloats = 890_670

// TestPredictBatchArena guards the inference tape's high-water: pooled
// tapes keep their slabs, so the arena a pass needs is the memory each
// serving worker holds. A change that brings back an edge-by-width
// matrix fails here before it shows up as resident memory.
func TestPredictBatchArena(t *testing.T) {
	gs := mixGraphs(99)
	m := benchModel(gs)
	s := m.getScratch()
	m.prepareBatch(&s.p, gs)
	m.forwardBatch(s.c, &s.p)
	if got := s.c.T.ArenaFloats(); got > predictBatchArenaFloats {
		t.Fatalf("forward pass takes %d arena floats, want at most %d", got, predictBatchArenaFloats)
	}
}
