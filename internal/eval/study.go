package eval

import (
	"mpidetect/internal/dataset"
	"mpidetect/internal/dtree"
	"mpidetect/internal/ir2vec"
	"mpidetect/internal/metrics"
	"mpidetect/internal/par"
)

// PerLabelAccuracy trains the DT to predict the error label itself
// (multi-class) under k-fold CV and reports accuracy per label — Fig. 6.
func PerLabelAccuracy(e *Extractor, d *dataset.Dataset, p PipelineConfig) map[dataset.Label]float64 {
	enc := e.Encoder(d, p.Opt, p.Seed)
	f := e.IR2VecFeatures(d, p.Opt, p.Seed, enc)
	// Multi-class labels: dense ids per label present in the corpus.
	labelID := map[dataset.Label]int{}
	var idLabel []dataset.Label
	for _, c := range f.Codes {
		if _, ok := labelID[c.Label]; !ok {
			labelID[c.Label] = len(idLabel)
			idLabel = append(idLabel, c.Label)
		}
	}
	y := make([]int, len(f.Codes))
	for i, c := range f.Codes {
		y[i] = labelID[c.Label]
	}
	correctCnt := map[dataset.Label]int{}
	totalCnt := map[dataset.Label]int{}
	folds := stratifiedFolds(f.Codes, p.folds(), 44)
	type foldRes struct{ correct, total map[dataset.Label]int }
	results := make([]foldRes, len(folds))
	par.Map(len(folds), func(k int) {
		res := foldRes{correct: map[dataset.Label]int{}, total: map[dataset.Label]int{}}
		var trainIdx []int
		for j, fold := range folds {
			if j != k {
				trainIdx = append(trainIdx, fold...)
			}
		}
		trainX, trainY := gather(f.X, y, trainIdx)
		norm := ir2vec.FitNormalizer(p.Norm, trainX)
		trainXn := norm.ApplyAll(trainX)
		var feats []int
		if p.UseGA {
			full := make([][]float64, len(f.X))
			for i := range f.X {
				full[i] = norm.Apply(f.X[i])
			}
			feats = selectFeatures(full, y, trainIdx, gaConfig(len(f.X[0])), int64(k)+500)
		}
		tree := dtree.Train(trainXn, trainY, dtree.Config{Features: feats})
		for _, i := range folds[k] {
			label := f.Codes[i].Label
			res.total[label]++
			if tree.Predict(norm.Apply(f.X[i])) == y[i] {
				res.correct[label]++
			}
		}
		results[k] = res
	})
	for _, r := range results {
		for l, n := range r.total {
			totalCnt[l] += n
			correctCnt[l] += r.correct[l]
		}
	}
	out := map[dataset.Label]float64{}
	for l, n := range totalCnt {
		out[l] = float64(correctCnt[l]) / float64(n)
	}
	return out
}

// Ablation removes every sample of the excluded labels from training (the
// model still predicts binary correct/incorrect) and reports, per excluded
// label, the fraction of its validation samples predicted incorrect —
// Fig. 8 (one label) and Fig. 9 (pairs).
func Ablation(e *Extractor, d *dataset.Dataset, p PipelineConfig, excluded []dataset.Label) map[dataset.Label]float64 {
	enc := e.Encoder(d, p.Opt, p.Seed)
	f := e.IR2VecFeatures(d, p.Opt, p.Seed, enc)
	y := binaryLabels(f.Codes)
	excl := map[dataset.Label]bool{}
	for _, l := range excluded {
		excl[l] = true
	}
	folds := stratifiedFolds(f.Codes, p.folds(), 45)
	caught := map[dataset.Label]int{}
	total := map[dataset.Label]int{}
	type foldRes struct{ caught, total map[dataset.Label]int }
	results := make([]foldRes, len(folds))
	par.Map(len(folds), func(k int) {
		res := foldRes{caught: map[dataset.Label]int{}, total: map[dataset.Label]int{}}
		var trainIdx []int
		for j, fold := range folds {
			if j == k {
				continue
			}
			for _, i := range fold {
				if !excl[f.Codes[i].Label] {
					trainIdx = append(trainIdx, i)
				}
			}
		}
		trainX, trainY := gather(f.X, y, trainIdx)
		norm := ir2vec.FitNormalizer(p.Norm, trainX)
		trainXn := norm.ApplyAll(trainX)
		var feats []int
		if p.UseGA {
			feats = selectFeatures(norm.ApplyAll(f.X), y, trainIdx, gaConfig(len(f.X[0])), int64(k)+700)
		}
		tree := dtree.Train(trainXn, trainY, dtree.Config{Features: feats})
		for _, i := range folds[k] {
			label := f.Codes[i].Label
			if !excl[label] {
				continue
			}
			res.total[label]++
			if tree.Predict(norm.Apply(f.X[i])) == 1 {
				res.caught[label]++
			}
		}
		results[k] = res
	})
	for _, r := range results {
		for l, n := range r.total {
			total[l] += n
			caught[l] += r.caught[l]
		}
	}
	out := map[dataset.Label]float64{}
	for _, l := range excluded {
		if total[l] > 0 {
			out[l] = float64(caught[l]) / float64(total[l])
		}
	}
	return out
}

// SeedStudy reproduces §V-A "Seeds": GA features are selected under the
// original embedding seed, then vectors are regenerated under a different
// seed while reusing the original coordinates. Returns (accuracy with the
// original seed, accuracy after the seed change).
func SeedStudy(e *Extractor, d *dataset.Dataset, p PipelineConfig, newSeed int64) (orig, changed metrics.Confusion) {
	orig = IR2VecIntra(e, d, p)
	// Re-embed with the new seed; reuse feature coordinates by rerunning
	// the pipeline with GA frozen to the coordinates chosen under the
	// original seed. We approximate "frozen GA" by selecting features on
	// the original-seed features and evaluating trees on new-seed features.
	encOld := e.Encoder(d, p.Opt, p.Seed)
	fOld := e.IR2VecFeatures(d, p.Opt, p.Seed, encOld)
	encNew := e.Encoder(d, p.Opt, newSeed)
	fNew := e.IR2VecFeatures(d, p.Opt, newSeed, encNew)
	y := binaryLabels(fOld.Codes)
	folds := stratifiedFolds(fOld.Codes, p.folds(), 46)
	confs := make([]metrics.Confusion, len(folds))
	par.Map(len(folds), func(k int) {
		var trainIdx []int
		for j, fold := range folds {
			if j != k {
				trainIdx = append(trainIdx, fold...)
			}
		}
		normOld := ir2vec.FitNormalizer(p.Norm, fOld.X)
		var feats []int
		if p.UseGA {
			feats = selectFeatures(normOld.ApplyAll(fOld.X), y, trainIdx, gaConfig(len(fOld.X[0])), int64(k)+900)
		}
		// Train and evaluate on the *new* seed's features with the old
		// coordinates.
		trainX, trainY := gather(fNew.X, y, trainIdx)
		norm := ir2vec.FitNormalizer(p.Norm, trainX)
		tree := dtree.Train(norm.ApplyAll(trainX), trainY, dtree.Config{Features: feats})
		for _, i := range folds[k] {
			confs[k].Record(y[i] == 1, tree.Predict(norm.Apply(fNew.X[i])) == 1)
		}
	})
	for _, c := range confs {
		changed.Add(c)
	}
	return orig, changed
}
