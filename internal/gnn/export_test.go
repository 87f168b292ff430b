package gnn

import "mpidetect/internal/graphs"

// Test-only API: production code does not call it.

// PredictProbs returns the softmax class distribution of one graph.
func (m *Model) PredictProbs(g *graphs.Graph) []float64 {
	return m.PredictProbsBatch([]*graphs.Graph{g})[0]
}
