package eval

import (
	"mpidetect/internal/dataset"
	"mpidetect/internal/dtree"
	"mpidetect/internal/ir2vec"
	"mpidetect/internal/metrics"
	"mpidetect/internal/par"
)

// Design-choice ablations called out in DESIGN.md: these quantify the parts
// of the pipeline the paper fixes without measuring (the two IR2Vec
// encodings, and the eager threshold sensitivity of the simulator is
// covered by the mpisim tests).

// EncodingAblation evaluates the Intra scenario with symbolic-only,
// flow-aware-only, and concatenated embeddings (the paper always
// concatenates; §IV-A motivates it by the negligible inference cost).
func EncodingAblation(e *Extractor, d *dataset.Dataset, p PipelineConfig) map[string]metrics.Confusion {
	enc := e.Encoder(d, p.Opt, p.Seed)
	full := e.IR2VecFeatures(d, p.Opt, p.Seed, enc)
	y := binaryLabels(full.Codes)
	out := map[string]metrics.Confusion{}
	for _, mode := range []ir2vec.Encoding{ir2vec.EncSymbolic, ir2vec.EncFlowAware, ir2vec.EncBoth} {
		x := make([][]float64, len(full.X))
		for i, v := range full.X {
			switch mode {
			case ir2vec.EncSymbolic:
				x[i] = v[:e.Dim]
			case ir2vec.EncFlowAware:
				x[i] = v[e.Dim:]
			default:
				x[i] = v
			}
		}
		f := &Features{X: x, Codes: full.Codes}
		folds := stratifiedFolds(f.Codes, p.folds(), 48)
		confs := make([]metrics.Confusion, len(folds))
		par.Map(len(folds), func(k int) {
			var train []int
			for j, fold := range folds {
				if j != k {
					train = append(train, fold...)
				}
			}
			q := p
			q.UseGA = false // isolate the encoding choice
			trainEvalBinary(f, y, train, folds[k], q, &confs[k], int64(k)+300)
		})
		var total metrics.Confusion
		for _, c := range confs {
			total.Add(c)
		}
		out[mode.String()] = total
	}
	return out
}

// DepthAblation sweeps the decision tree's depth limit, quantifying how
// much of the accuracy requires the sklearn default (unlimited depth).
func DepthAblation(e *Extractor, d *dataset.Dataset, p PipelineConfig, depths []int) map[int]metrics.Confusion {
	enc := e.Encoder(d, p.Opt, p.Seed)
	f := e.IR2VecFeatures(d, p.Opt, p.Seed, enc)
	y := binaryLabels(f.Codes)
	out := map[int]metrics.Confusion{}
	for _, depth := range depths {
		folds := stratifiedFolds(f.Codes, p.folds(), 49)
		confs := make([]metrics.Confusion, len(folds))
		depth := depth
		par.Map(len(folds), func(k int) {
			var train []int
			for j, fold := range folds {
				if j != k {
					train = append(train, fold...)
				}
			}
			trainX, trainY := gather(f.X, y, train)
			norm := ir2vec.FitNormalizer(p.Norm, trainX)
			tree := dtree.Train(norm.ApplyAll(trainX), trainY, dtree.Config{MaxDepth: depth})
			for _, i := range folds[k] {
				confs[k].Record(y[i] == 1, tree.Predict(norm.Apply(f.X[i])) == 1)
			}
		})
		var total metrics.Confusion
		for _, c := range confs {
			total.Add(c)
		}
		out[depth] = total
	}
	return out
}
