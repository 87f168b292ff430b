package eval

import (
	"math/rand"

	"mpidetect/internal/dataset"
	"mpidetect/internal/dtree"
	"mpidetect/internal/ga"
	"mpidetect/internal/gnn"
	"mpidetect/internal/graphs"
	"mpidetect/internal/ir2vec"
	"mpidetect/internal/metrics"
	"mpidetect/internal/par"
	"mpidetect/internal/passes"
)

// PipelineConfig selects the knobs the paper explores for the IR2Vec model.
type PipelineConfig struct {
	Opt   passes.OptLevel // -O0 / -O2 / -Os (the paper settles on -Os)
	Norm  ir2vec.Norm     // none / vector / index (settles on vector)
	Seed  int64           // embedding seed (§V-A "Seeds")
	UseGA bool            // GA feature selection (§IV-A)
	Folds int             // 0 = 10
}

// DefaultPipeline is the configuration the paper's headline rows use:
// -Os, vector normalisation, GA feature selection, 10 folds.
func DefaultPipeline() PipelineConfig {
	return PipelineConfig{Opt: passes.Os, Norm: ir2vec.NormVector, Seed: 1, UseGA: true}
}

func (p PipelineConfig) folds() int {
	if p.Folds <= 0 {
		return 10
	}
	return p.Folds
}

// gaConfig returns the GA setup, scaled down from the paper's 2500×25
// (ga.Default) so the full experiment suite completes on a laptop.
func gaConfig(numFeatures int) ga.Config {
	cfg := ga.Default(numFeatures)
	cfg.PopulationSize = 150
	cfg.Generations = 10
	return cfg
}

// binaryLabels maps codes to 0 (correct) / 1 (incorrect).
func binaryLabels(codes []*dataset.Code) []int {
	y := make([]int, len(codes))
	for i, c := range codes {
		if c.Incorrect() {
			y[i] = 1
		}
	}
	return y
}

// stratifiedFolds partitions indices into k folds with per-label balance,
// deterministically from seed.
func stratifiedFolds(codes []*dataset.Code, k int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	byLabel := map[dataset.Label][]int{}
	for i, c := range codes {
		byLabel[c.Label] = append(byLabel[c.Label], i)
	}
	folds := make([][]int, k)
	for _, label := range dataset.AllLabels() {
		idx := byLabel[label]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for j, i := range idx {
			folds[j%k] = append(folds[j%k], i)
		}
	}
	return folds
}

// selectFeatures runs GA feature selection on the training split. The
// fitness of a coordinate subset is the mean validation accuracy of trees
// trained on it over three rotating 80/20 splits of the training data — a
// robust estimate that keeps the GA from overfitting one holdout.
func selectFeatures(x [][]float64, y []int, trainIdx []int, cfg ga.Config, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	shuffled := append([]int(nil), trainIdx...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	const splits = 3
	type split struct {
		subX, fitX [][]float64
		subY, fitY []int
	}
	sps := make([]split, splits)
	n := len(shuffled)
	for s := 0; s < splits; s++ {
		lo := n * s / splits
		hi := n * (s + 1) / splits
		var sub, fit []int
		fit = append(fit, shuffled[lo:hi]...)
		sub = append(sub, shuffled[:lo]...)
		sub = append(sub, shuffled[hi:]...)
		sps[s].subX, sps[s].subY = gather(x, y, sub)
		sps[s].fitX, sps[s].fitY = gather(x, y, fit)
	}
	cfg.Seed = seed
	res := ga.Run(cfg, func(features []int) float64 {
		acc := 0.0
		for _, sp := range sps {
			t := dtree.Train(sp.subX, sp.subY, dtree.Config{Features: features})
			acc += t.Accuracy(sp.fitX, sp.fitY)
		}
		return acc / splits
	})
	return res.Features
}

func gather(x [][]float64, y []int, idx []int) ([][]float64, []int) {
	gx := make([][]float64, len(idx))
	gy := make([]int, len(idx))
	for i, j := range idx {
		gx[i] = x[j]
		gy[i] = y[j]
	}
	return gx, gy
}

// trainEvalBinary fits normalisation + (optional GA) + tree on the train
// split and tallies the validation split into conf.
func trainEvalBinary(f *Features, y []int, trainIdx, valIdx []int, p PipelineConfig, conf *metrics.Confusion, foldSeed int64) {
	trainX, trainY := gather(f.X, y, trainIdx)
	norm := ir2vec.FitNormalizer(p.Norm, trainX)
	trainXn := norm.ApplyAll(trainX)
	var feats []int
	if p.UseGA {
		nx := make([][]float64, len(f.X))
		for i, idx := range trainIdx {
			nx[idx] = trainXn[i]
		}
		// selectFeatures needs normalised features indexed globally.
		full := make([][]float64, len(f.X))
		for i := range f.X {
			if nx[i] != nil {
				full[i] = nx[i]
			} else {
				full[i] = norm.Apply(f.X[i])
			}
		}
		feats = selectFeatures(full, y, trainIdx, gaConfig(len(f.X[0])), foldSeed)
	}
	tree := dtree.Train(trainXn, trainY, dtree.Config{Features: feats})
	for _, i := range valIdx {
		pred := tree.Predict(norm.Apply(f.X[i]))
		conf.Record(y[i] == 1, pred == 1)
	}
}

// IR2VecIntra runs the Intra scenario (train and validate on the same
// suite, k-fold CV) and returns the aggregated confusion (Table II rows
// "IR2vec Intra").
func IR2VecIntra(e *Extractor, d *dataset.Dataset, p PipelineConfig) metrics.Confusion {
	enc := e.Encoder(d, p.Opt, p.Seed)
	f := e.IR2VecFeatures(d, p.Opt, p.Seed, enc)
	y := binaryLabels(f.Codes)
	folds := stratifiedFolds(f.Codes, p.folds(), 42)
	confs := make([]metrics.Confusion, len(folds))
	par.Map(len(folds), func(k int) {
		var train []int
		for j, fold := range folds {
			if j != k {
				train = append(train, fold...)
			}
		}
		trainEvalBinary(f, y, train, folds[k], p, &confs[k], int64(k)+101)
	})
	var total metrics.Confusion
	for _, c := range confs {
		total.Add(c)
	}
	return total
}

// IR2VecCross trains on one suite and validates on the other (Table II
// rows "IR2vec Cross"). The training suite's encoder embeds both corpora.
func IR2VecCross(e *Extractor, train, val *dataset.Dataset, p PipelineConfig) metrics.Confusion {
	enc := e.Encoder(train, p.Opt, p.Seed)
	ftr := e.IR2VecFeatures(train, p.Opt, p.Seed, enc)
	fva := e.IR2VecFeatures(val, p.Opt, p.Seed, enc)
	ytr := binaryLabels(ftr.Codes)
	yva := binaryLabels(fva.Codes)
	all := make([]int, len(ftr.X))
	for i := range all {
		all[i] = i
	}
	var conf metrics.Confusion
	norm := ir2vec.FitNormalizer(p.Norm, ftr.X)
	trainXn := norm.ApplyAll(ftr.X)
	var feats []int
	if p.UseGA {
		feats = selectFeatures(trainXn, ytr, all, gaConfig(len(ftr.X[0])), 77)
	}
	tree := dtree.Train(trainXn, ytr, dtree.Config{Features: feats})
	for i := range fva.X {
		pred := tree.Predict(norm.Apply(fva.X[i]))
		conf.Record(yva[i] == 1, pred == 1)
	}
	return conf
}

// IR2VecMix merges both suites and cross-validates (Table II "IR2vec Mix").
func IR2VecMix(e *Extractor, mbi, corr *dataset.Dataset, p PipelineConfig) metrics.Confusion {
	mix := dataset.Merge("Mix", mbi, corr)
	return IR2VecIntra(e, mix, p)
}

// ---------------------------------------------------------------------------
// GNN scenarios (§IV-B, Table II rows "GNN ...").
// ---------------------------------------------------------------------------

// GNNScenarioConfig holds the GNN evaluation knobs.
type GNNScenarioConfig struct {
	Model gnn.Config
	Folds int
}

func (c GNNScenarioConfig) folds() int {
	if c.Folds <= 0 {
		return 10
	}
	return c.Folds
}

// GNNIntra cross-validates the GNN on one suite.
func GNNIntra(e *Extractor, d *dataset.Dataset, cfg GNNScenarioConfig) metrics.Confusion {
	gs := e.Graphs(d, passes.O0)
	y := binaryLabels(gs.Codes)
	folds := stratifiedFolds(gs.Codes, cfg.folds(), 43)
	var total metrics.Confusion
	for k := range folds {
		var trainIdx []int
		for j, fold := range folds {
			if j != k {
				trainIdx = append(trainIdx, fold...)
			}
		}
		total.Add(runGNNFold(gs, y, trainIdx, folds[k], cfg, int64(k)))
	}
	return total
}

// runGNNFold trains one GNN on the training indices and scores the
// validation indices (shared by GNNIntra and the ablation studies).
func runGNNFold(gs *GraphSet, y []int, trainIdx, valIdx []int, cfg GNNScenarioConfig, seedOff int64) metrics.Confusion {
	var trainGs []*graphs.Graph
	var samples []gnn.Sample
	for _, i := range trainIdx {
		trainGs = append(trainGs, gs.Gs[i])
		samples = append(samples, gnn.Sample{G: gs.Gs[i], Label: y[i]})
	}
	vocab := graphs.BuildVocab(trainGs)
	mcfg := cfg.Model
	mcfg.Seed += seedOff
	model := gnn.NewModel(mcfg, vocab, 2)
	model.Train(samples)
	var conf metrics.Confusion
	for _, i := range valIdx {
		conf.Record(y[i] == 1, model.Predict(gs.Gs[i]) == 1)
	}
	return conf
}

// GNNCross trains the GNN on one suite and validates on the other.
func GNNCross(e *Extractor, train, val *dataset.Dataset, cfg GNNScenarioConfig) metrics.Confusion {
	gtr := e.Graphs(train, passes.O0)
	gva := e.Graphs(val, passes.O0)
	ytr := binaryLabels(gtr.Codes)
	yva := binaryLabels(gva.Codes)
	vocab := graphs.BuildVocab(gtr.Gs)
	var samples []gnn.Sample
	for i, g := range gtr.Gs {
		samples = append(samples, gnn.Sample{G: g, Label: ytr[i]})
	}
	model := gnn.NewModel(cfg.Model, vocab, 2)
	model.Train(samples)
	var conf metrics.Confusion
	for i, g := range gva.Gs {
		conf.Record(yva[i] == 1, model.Predict(g) == 1)
	}
	return conf
}

// GNNMix merges the suites and cross-validates.
func GNNMix(e *Extractor, mbi, corr *dataset.Dataset, cfg GNNScenarioConfig) metrics.Confusion {
	mix := dataset.Merge("Mix", mbi, corr)
	return GNNIntra(e, mix, cfg)
}
