package gnn

import (
	"testing"

	"mpidetect/internal/dataset"
	"mpidetect/internal/graphs"
	"mpidetect/internal/irgen"
)

// benchModel builds an untrained default-size model over the graphs'
// vocabulary, which keeps the bench setup cheap while the forward pass
// is exactly the serving one. The weights still shape the cost a little:
// the attention-score and ELU kernels no longer branch on each
// activation's sign (the scalar loops did, and mispredicted about half
// the time), but the matmuls skip exactly-zero inputs and the ELU leaves
// a group of four with an input below about -708.4 to math.Exp.
func benchModel(gs []*graphs.Graph) *Model {
	return NewModel(Default(), graphs.BuildVocab(gs), 2)
}

// corrBenchGraphs returns the first 8 CorrBench codes as graphs: small
// programs (~67 nodes), cheap to predict.
func corrBenchGraphs() []*graphs.Graph {
	var gs []*graphs.Graph
	for _, c := range dataset.GenerateCorrBench(99, false).Codes[:8] {
		gs = append(gs, graphs.Build(irgen.MustLower(c.Prog)))
	}
	return gs
}

// mixGraphs returns 8 graphs drawn like the serving workload's inputs:
// the MBI and CorrBench generators merged and shuffled, so most are the
// larger MBI programs and some carry call edges.
func mixGraphs(seed int64) []*graphs.Graph {
	d := dataset.Merge("mix", dataset.GenerateMBI(seed), dataset.GenerateCorrBench(seed, false))
	var gs []*graphs.Graph
	for _, c := range d.Shuffled(seed)[:8] {
		gs = append(gs, graphs.Build(irgen.MustLower(c.Prog)))
	}
	return gs
}

// BenchmarkPredictBatch compares the fused block-diagonal forward pass
// over 8 graphs against 8 independent single-graph passes — the
// worker-drain decision the serving engine makes under load. ns/op is
// per 8-graph round in both modes. fused/loop use small CorrBench graphs;
// mix-fused/mix-loop use a serving-like MBI+CorrBench mix.
func BenchmarkPredictBatch(b *testing.B) {
	sets := []struct {
		prefix string
		gs     []*graphs.Graph
	}{{"", corrBenchGraphs()}, {"mix-", mixGraphs(99)}}
	for _, set := range sets {
		gs := set.gs
		m := benchModel(gs)
		b.Run(set.prefix+"fused", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if out := m.PredictProbsBatch(gs); len(out) != len(gs) {
					b.Fatal("short batch")
				}
			}
			b.ReportMetric(float64(len(gs))*float64(b.N)/b.Elapsed().Seconds(), "graphs/s")
		})
		b.Run(set.prefix+"loop", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, g := range gs {
					if p := m.PredictProbs(g); len(p) != 2 {
						b.Fatal("bad probs")
					}
				}
			}
			b.ReportMetric(float64(len(gs))*float64(b.N)/b.Elapsed().Seconds(), "graphs/s")
		})
	}
}
