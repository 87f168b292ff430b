package gnn

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"mpidetect/internal/autodiff"
	"mpidetect/internal/dataset"
	"mpidetect/internal/graphs"
	"mpidetect/internal/irgen"
	"mpidetect/internal/nn"
)

// denseLogits is the reference every prediction is pinned to: the dense
// training forward pass (every row projected, one graph at a time) run on
// a forward-only context.
func denseLogits(m *Model, g *graphs.Graph) []float64 {
	c := nn.NewCtx(m.ps, nil)
	c.T.SetInference(true)
	return append([]float64(nil), m.forward(c, m.prepare(g)).Val.Data...)
}

func argmax(row []float64) int {
	bi := 0
	for i, v := range row {
		if v > row[bi] {
			bi = i
		}
	}
	return bi
}

// checkAgainstDense runs gs as one batch through PredictProbsBatch and
// requires every probability to equal the dense reference bit for bit.
func checkAgainstDense(t *testing.T, what string, m *Model, gs []*graphs.Graph) {
	t.Helper()
	probs := m.PredictProbsBatch(gs)
	if len(probs) != len(gs) {
		t.Fatalf("%s: batch size %d, want %d", what, len(probs), len(gs))
	}
	for i, g := range gs {
		want := autodiff.Softmax(denseLogits(m, g))
		for j := range want {
			if math.Float64bits(probs[i][j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s graph %d class %d: batch prob %v, dense %v", what, i, j, probs[i][j], want[j])
			}
		}
	}
}

// TestPredictBatchBitForBit pins the compacted, fused inference pass and
// its batch-of-one entry points to the dense per-graph pass: class,
// probabilities and argmax must agree exactly for every graph of a
// heterogeneous batch — including graphs whose tokens are out of
// vocabulary and graphs missing whole edge relations, where the batched
// pass adds zero message rows the single pass skips.
func TestPredictBatchBitForBit(t *testing.T) {
	train, test, vocab := corpusSample(t, 6)
	m := NewModel(tinyCfg(), vocab, 2)
	m.Train(train)

	var gs []*graphs.Graph
	for _, s := range test {
		gs = append(gs, s.G)
	}
	for _, s := range train[:4] {
		gs = append(gs, s.G)
	}
	// An out-of-distribution graph (different generator seed): OOV tokens
	// and possibly different relation coverage.
	d := dataset.GenerateMBI(1)
	gs = append(gs, graphs.Build(irgen.MustLower(d.Codes[0].Prog)))

	checkAgainstDense(t, "batch", m, gs)
	classes := m.PredictBatch(gs)
	for i, g := range gs {
		if want := argmax(denseLogits(m, g)); classes[i] != want {
			t.Fatalf("graph %d: batch class %d, dense %d", i, classes[i], want)
		}
	}
	for i, g := range gs {
		logits := denseLogits(m, g)
		if got, want := m.Predict(g), argmax(logits); got != want {
			t.Fatalf("graph %d: Predict %d, dense %d", i, got, want)
		}
		want := autodiff.Softmax(logits)
		for j, p := range m.PredictProbs(g) {
			if math.Float64bits(p) != math.Float64bits(want[j]) {
				t.Fatalf("graph %d class %d: PredictProbs %v, dense %v", i, j, p, want[j])
			}
		}
	}
}

// hasRelation reports whether g has an edge of relation rel.
func hasRelation(g *graphs.Graph, rel relation) bool {
	for _, e := range g.Edges {
		if e.Kind == rel.edge && g.Nodes[e.Src].Kind == rel.src && g.Nodes[e.Dst].Kind == rel.dst {
			return true
		}
	}
	return false
}

// withoutRelation copies g minus every edge of relation rel.
func withoutRelation(g *graphs.Graph, rel relation) *graphs.Graph {
	out := &graphs.Graph{Nodes: g.Nodes, TokID: g.TokID}
	for _, e := range g.Edges {
		if e.Kind == rel.edge && g.Nodes[e.Src].Kind == rel.src && g.Nodes[e.Dst].Kind == rel.dst {
			continue
		}
		out.Edges = append(out.Edges, e)
	}
	return out
}

// withoutKind copies g minus every node of kind k and the edges touching
// them.
func withoutKind(g *graphs.Graph, k graphs.NodeKind) *graphs.Graph {
	out := &graphs.Graph{}
	idx := make([]int, len(g.Nodes))
	for i, n := range g.Nodes {
		idx[i] = -1
		if n.Kind != k {
			idx[i] = len(out.Nodes)
			out.Nodes = append(out.Nodes, n)
		}
	}
	for _, e := range g.Edges {
		if idx[e.Src] >= 0 && idx[e.Dst] >= 0 {
			out.Edges = append(out.Edges, graphs.Edge{Kind: e.Kind, Src: idx[e.Src], Dst: idx[e.Dst]})
		}
	}
	return out
}

// allOOV copies g with every token renamed out of vocabulary.
func allOOV(g *graphs.Graph) *graphs.Graph {
	out := &graphs.Graph{Edges: g.Edges}
	for _, n := range g.Nodes {
		out.Nodes = append(out.Nodes, graphs.Node{Kind: n.Kind, Token: "unseen:" + n.Token})
	}
	return out
}

// TestPredictBatchMatchesDenseGenerated is the differential test of the
// row-compacted inference pass over generated inputs: MBI and CorrBench
// graphs at fresh generator seeds, in batches of every size from 1 to 8,
// plus batches built to hit the compaction plan's edge cases — exactly one
// member with a call edge, a member missing each relation in turn, and a
// member whose every token is out of vocabulary. Every prediction must
// equal the dense per-graph pass bit for bit, for a trained model and for
// an untrained one of the default (wider) shape.
func TestPredictBatchMatchesDenseGenerated(t *testing.T) {
	train, _, vocab := corpusSample(t, 6)
	trained := NewModel(tinyCfg(), vocab, 2)
	trained.Train(train)
	wide := NewModel(Default(), vocab, 2)

	var gs, withCall, noCall []*graphs.Graph
	for _, seed := range []int64{101, 102, 103} {
		d := dataset.Merge("diff", dataset.GenerateMBI(seed), dataset.GenerateCorrBench(seed, false))
		for i, c := range d.Shuffled(seed)[:36] {
			mod := irgen.MustLower(c.Prog)
			g := graphs.Build(mod)
			if i%2 == 1 {
				// Pre-resolved tokens mixed with string-resolved ones.
				g = graphs.BuildResolved(mod, vocab)
			}
			gs = append(gs, g)
			if hasRelation(g, relations[len(relations)-1]) {
				withCall = append(withCall, g)
			} else {
				noCall = append(noCall, g)
			}
		}
	}
	if relations[len(relations)-1].edge != graphs.EdgeCall || len(withCall) == 0 || len(noCall) < 3 {
		t.Fatalf("generated set lacks the call-edge mix: %d with, %d without", len(withCall), len(noCall))
	}

	type batch struct {
		what string
		gs   []*graphs.Graph
	}
	// Batch sizes 1..8 over each seed's 36 graphs.
	for s := 0; s < len(gs); s += 36 {
		rest := gs[s : s+36]
		for size := 1; size <= 8; size++ {
			checkAgainstDense(t, fmt.Sprintf("seed set %d size %d", s/36, size), trained, rest[:size])
			rest = rest[size:]
		}
	}

	var batches []batch
	batches = append(batches, batch{"one call edge",
		[]*graphs.Graph{noCall[0], withCall[0], noCall[1], noCall[2]}})
	for ri, rel := range relations {
		var full *graphs.Graph
		for _, g := range gs {
			if hasRelation(g, rel) {
				full = g
				break
			}
		}
		if full == nil {
			t.Fatalf("no generated graph has relation %d", ri)
		}
		batches = append(batches, batch{fmt.Sprintf("missing relation %d", ri),
			[]*graphs.Graph{full, withoutRelation(full, rel), gs[0]}})
	}
	for k := graphs.NodeKind(0); k < graphs.NumNodeKinds; k++ {
		batches = append(batches, batch{"missing kind " + k.String(),
			[]*graphs.Graph{gs[1], withoutKind(withCall[0], k), gs[2]}})
	}
	batches = append(batches, batch{"all OOV", []*graphs.Graph{gs[3], allOOV(withCall[0]), gs[5]}})

	for _, b := range batches {
		checkAgainstDense(t, "trained/"+b.what, trained, b.gs)
		checkAgainstDense(t, "default/"+b.what, wide, b.gs)
	}
}

// TestPredictConcurrent runs batches from several goroutines at once: each
// call borrows its own pooled scratch (tape, prepared batch, compaction
// plan), so results must match the sequential ones exactly.
func TestPredictConcurrent(t *testing.T) {
	train, test, vocab := corpusSample(t, 6)
	m := NewModel(tinyCfg(), vocab, 2)
	m.Train(train)
	var gs []*graphs.Graph
	for _, s := range append(test, train...) {
		gs = append(gs, s.G)
	}
	gs = append(gs, graphs.Build(irgen.MustLower(dataset.GenerateMBI(1).Codes[0].Prog)))
	batches := [][]*graphs.Graph{gs[:3], gs[3:8], gs[8:9], gs[9:]}
	want := make([][][]float64, len(batches))
	for i, b := range batches {
		want[i] = m.PredictProbsBatch(b)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				i := (w + r) % len(batches)
				got := m.PredictProbsBatch(batches[i])
				for g := range got {
					for j := range got[g] {
						if math.Float64bits(got[g][j]) != math.Float64bits(want[i][g][j]) {
							t.Errorf("worker %d batch %d graph %d class %d: %v, sequential %v",
								w, i, g, j, got[g][j], want[i][g][j])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
