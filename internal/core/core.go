// Package core is the public façade of the reproduction: a Detector that
// takes an MPI-C program (as an AST or as textual IR), compiles it, embeds
// it, and predicts whether it is correct or which error class it carries —
// the end-to-end pipeline of the paper, usable as a library.
//
// Two detector families are available, matching §IV:
//
//   - IR2VecDetector — IR2Vec embeddings + decision tree (optionally with
//     GA-selected feature coordinates).
//   - GNNDetector    — ProGraML heterogeneous graphs + GATv2 GNN.
package core

import (
	"fmt"

	"mpidetect/internal/ast"
	"mpidetect/internal/dataset"
	"mpidetect/internal/dtree"
	"mpidetect/internal/gnn"
	"mpidetect/internal/graphs"
	"mpidetect/internal/ir"
	"mpidetect/internal/ir2vec"
	"mpidetect/internal/irgen"
	"mpidetect/internal/passes"
)

// Verdict is a detector's judgement of one program.
type Verdict struct {
	Incorrect bool
	// Label is the predicted error class when the detector was trained
	// multi-class; Correct otherwise.
	Label dataset.Label
	// Confidence is the predicted-class probability when available
	// (GNN softmax); decision trees report 1.
	Confidence float64
}

// Detector classifies MPI programs. A single program is a batch of one:
// CheckIR and CheckProgram classify through CheckModules.
type Detector interface {
	// CheckModules classifies already-optimised IR modules, returning
	// exactly len(ms) verdicts. Each verdict is bit-identical whatever
	// the batch around it; the error return fails the whole batch.
	CheckModules(ms []*ir.Module) ([]Verdict, error)
	// Name describes the detector.
	Name() string
	// Opt is the optimisation level the detector was trained at; callers
	// classifying raw IR should optimise it to this level first.
	Opt() passes.OptLevel
}

// BatchDetector is an alias of Detector, kept because the serving
// benchmark (perfbench/) type-asserts loaded artifacts to this name.
type BatchDetector = Detector

// CheckIR parses textual IR, optimises it at the detector's configured
// level, and classifies it — the one-call entrypoint for clients holding
// textual IR (the inference server's wire format). The server runs the
// same parse → Optimize → CheckModules sequence in two stages, so it can
// report per-program parse errors before scheduling work.
func CheckIR(d Detector, src string) (Verdict, error) {
	m, err := ir.Parse(src)
	if err != nil {
		return Verdict{}, fmt.Errorf("core: parsing IR: %w", err)
	}
	defer m.Release()
	passes.Optimize(m, d.Opt())
	return checkOne(d, m)
}

// CheckProgram compiles an MPI-C program at the detector's configured
// level and classifies it.
func CheckProgram(d Detector, p *ast.Program) (Verdict, error) {
	m, err := compile(p, d.Opt())
	if err != nil {
		return Verdict{}, err
	}
	return checkOne(d, m)
}

// checkOne classifies one optimised module as a batch of one.
func checkOne(d Detector, m *ir.Module) (Verdict, error) {
	vs, err := d.CheckModules([]*ir.Module{m})
	if err != nil {
		return Verdict{}, err
	}
	return vs[0], nil
}

// compile lowers and optimises a program.
func compile(p *ast.Program, lvl passes.OptLevel) (*ir.Module, error) {
	m, err := irgen.Lower(p)
	if err != nil {
		return nil, err
	}
	passes.Optimize(m, lvl)
	return m, nil
}

// ---------------------------------------------------------------------------
// IR2Vec + decision tree detector (§IV-A).
// ---------------------------------------------------------------------------

// IR2VecConfig configures training of the embedding detector.
type IR2VecConfig struct {
	Opt        passes.OptLevel // compilation option (paper: -Os)
	Norm       ir2vec.Norm     // normalisation (paper: vector)
	Dim        int             // per-encoding dimension (paper: 256)
	Seed       int64           // embedding seed
	Features   []int           // optional GA-selected coordinates
	MultiClass bool            // predict the error label rather than binary
}

// DefaultIR2VecConfig mirrors the paper's headline configuration.
func DefaultIR2VecConfig() IR2VecConfig {
	return IR2VecConfig{Opt: passes.Os, Norm: ir2vec.NormVector, Dim: ir2vec.Dim, Seed: 1}
}

// IR2VecDetector is a trained embedding+tree model.
type IR2VecDetector struct {
	cfg    IR2VecConfig
	enc    *ir2vec.Encoder
	norm   *ir2vec.Normalizer
	tree   *dtree.Tree
	labels []dataset.Label // class id -> label
}

// Name implements Detector.
func (d *IR2VecDetector) Name() string { return "IR2Vec+DT" }

// Opt implements Detector.
func (d *IR2VecDetector) Opt() passes.OptLevel { return d.cfg.Opt }

// TrainIR2Vec fits the detector on a labelled corpus.
func TrainIR2Vec(corpus *dataset.Dataset, cfg IR2VecConfig) (*IR2VecDetector, error) {
	if cfg.Dim <= 0 {
		cfg.Dim = ir2vec.Dim
	}
	mods := make([]*ir.Module, 0, len(corpus.Codes))
	for _, c := range corpus.Codes {
		m, err := compile(c.Prog, cfg.Opt)
		if err != nil {
			return nil, fmt.Errorf("core: compiling %s: %w", c.Name, err)
		}
		mods = append(mods, m)
	}
	sample := mods
	if len(sample) > 200 {
		sample = sample[:200]
	}
	enc := ir2vec.Train(sample, cfg.Dim, cfg.Seed, 30)
	enc.FitVocab(mods)
	x := make([][]float64, len(mods))
	for i, m := range mods {
		x[i] = enc.Encode(m)
	}
	norm := ir2vec.FitNormalizer(cfg.Norm, x)
	xn := norm.ApplyAll(x)

	det := &IR2VecDetector{cfg: cfg, enc: enc, norm: norm}
	y := make([]int, len(corpus.Codes))
	if cfg.MultiClass {
		id := map[dataset.Label]int{}
		for i, c := range corpus.Codes {
			if _, ok := id[c.Label]; !ok {
				id[c.Label] = len(det.labels)
				det.labels = append(det.labels, c.Label)
			}
			y[i] = id[c.Label]
		}
	} else {
		det.labels = []dataset.Label{dataset.Correct, dataset.CallOrdering}
		for i, c := range corpus.Codes {
			if c.Incorrect() {
				y[i] = 1
			}
		}
	}
	det.tree = dtree.Train(xn, y, dtree.Config{Features: cfg.Features})
	return det, nil
}

// verdictOf maps a predicted class id to a Verdict.
func (d *IR2VecDetector) verdictOf(class int) Verdict {
	label := d.labels[class]
	if !d.cfg.MultiClass {
		if class == 1 {
			return Verdict{Incorrect: true, Label: dataset.CallOrdering, Confidence: 1}
		}
		return Verdict{Label: dataset.Correct, Confidence: 1}
	}
	return Verdict{Incorrect: label != dataset.Correct, Label: label, Confidence: 1}
}

// CheckModules implements Detector: the whole batch is embedded into one
// flat feature buffer through a single pooled scratch, then normalised and
// classified per program. Each program's features are computed alone, so
// its verdict does not depend on the batch around it.
func (d *IR2VecDetector) CheckModules(ms []*ir.Module) ([]Verdict, error) {
	feats := d.enc.EncodeBatch(ms)
	w := 2 * d.enc.Dim
	out := make([]Verdict, len(ms))
	for i := range ms {
		v := d.norm.Apply(feats[i*w : (i+1)*w])
		out[i] = d.verdictOf(d.tree.Predict(v))
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// GNN detector (§IV-B).
// ---------------------------------------------------------------------------

// GNNDetectorConfig configures the graph model.
type GNNDetectorConfig struct {
	Model gnn.Config
	Opt   passes.OptLevel // paper: -O0 for the GNN
}

// DefaultGNNConfig mirrors the paper's setup with the throughput model.
func DefaultGNNConfig() GNNDetectorConfig {
	return GNNDetectorConfig{Model: gnn.Default(), Opt: passes.O0}
}

// GNNDetector is a trained graph model.
type GNNDetector struct {
	cfg   GNNDetectorConfig
	model *gnn.Model
}

// Name implements Detector.
func (d *GNNDetector) Name() string { return "ProGraML+GATv2" }

// Opt implements Detector.
func (d *GNNDetector) Opt() passes.OptLevel { return d.cfg.Opt }

// TrainGNN fits the graph detector (binary correct/incorrect).
func TrainGNN(corpus *dataset.Dataset, cfg GNNDetectorConfig) (*GNNDetector, error) {
	var gs []*graphs.Graph
	var samples []gnn.Sample
	for _, c := range corpus.Codes {
		m, err := compile(c.Prog, cfg.Opt)
		if err != nil {
			return nil, fmt.Errorf("core: compiling %s: %w", c.Name, err)
		}
		g := graphs.Build(m)
		gs = append(gs, g)
		label := 0
		if c.Incorrect() {
			label = 1
		}
		samples = append(samples, gnn.Sample{G: g, Label: label})
	}
	vocab := graphs.BuildVocab(gs)
	model := gnn.NewModel(cfg.Model, vocab, 2)
	model.Train(samples)
	return &GNNDetector{cfg: cfg, model: model}, nil
}

// gnnVerdict maps a binary probability pair to a Verdict.
func gnnVerdict(probs []float64) Verdict {
	if probs[1] >= probs[0] {
		return Verdict{Incorrect: true, Label: dataset.CallOrdering, Confidence: probs[1]}
	}
	return Verdict{Label: dataset.Correct, Confidence: probs[0]}
}

// CheckModules implements Detector: each graph is built directly on the
// model's vocabulary ids (graphs.BuildResolved, skipping the token-string
// round trip, with identical ids), and all graphs run through one
// block-diagonal GNN forward pass (gnn.PredictProbsBatch), whose
// per-graph results are bit-identical to a batch of one.
func (d *GNNDetector) CheckModules(ms []*ir.Module) ([]Verdict, error) {
	gs := make([]*graphs.Graph, len(ms))
	for i, m := range ms {
		gs[i] = graphs.BuildResolved(m, d.model.Vocab)
	}
	probs := d.model.PredictProbsBatch(gs)
	out := make([]Verdict, len(ms))
	for i := range out {
		out[i] = gnnVerdict(probs[i])
	}
	return out, nil
}
