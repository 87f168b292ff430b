package eval

import (
	"fmt"

	"mpidetect/internal/dataset"
	"mpidetect/internal/dtree"
	"mpidetect/internal/ir2vec"
	"mpidetect/internal/irgen"
	"mpidetect/internal/passes"
)

// HypreCell is one cell of Table VI: the prediction of one model on one
// compiled version of the case-study application.
type HypreCell struct {
	Training  string          // "MBI" or "MPI-CorrBench"
	Features  string          // "all" or "GA"
	Opt       passes.OptLevel // compilation of the Hypre version
	BuggyCode bool            // which version was classified
	Predicted bool            // predicted incorrect?
	Right     bool            // prediction matches the ground truth
}

// String formats the cell like the paper (ok/ko plus correctness).
func (h HypreCell) String() string {
	pred := "ok"
	if h.Predicted {
		pred = "ko"
	}
	mark := "WRONG"
	if h.Right {
		mark = "right"
	}
	version := "ok"
	if h.BuggyCode {
		version = "ko"
	}
	return fmt.Sprintf("train=%-14s feats=%-3s %s-%s -> predicted %s (%s)",
		h.Training, h.Features, h.Opt, version, pred, mark)
}

// HypreStudy reproduces Table VI: models trained on either suite, with all
// features or GA-selected features, classify the buggy and fixed versions
// compiled at -O0/-O2/-Os.
func HypreStudy(e *Extractor, mbi, corr *dataset.Dataset, p PipelineConfig, seed int64) []HypreCell {
	buggy, fixed := dataset.HypreCase(seed)
	var cells []HypreCell
	for _, training := range []*dataset.Dataset{mbi, corr} {
		enc := e.Encoder(training, p.Opt, p.Seed)
		f := e.IR2VecFeatures(training, p.Opt, p.Seed, enc)
		y := binaryLabels(f.Codes)
		all := make([]int, len(f.X))
		for i := range all {
			all[i] = i
		}
		norm := ir2vec.FitNormalizer(p.Norm, f.X)
		xn := norm.ApplyAll(f.X)
		var gaFeats []int
		if p.UseGA {
			gaFeats = selectFeatures(xn, y, all, gaConfig(len(f.X[0])), 31)
		}
		for _, feats := range []struct {
			name string
			sel  []int
		}{{"all", nil}, {"GA", gaFeats}} {
			if feats.name == "GA" && feats.sel == nil {
				continue
			}
			tree := dtree.Train(xn, y, dtree.Config{Features: feats.sel})
			for _, version := range []struct {
				code  *dataset.Code
				buggy bool
			}{{fixed, false}, {buggy, true}} {
				for _, lvl := range []passes.OptLevel{passes.O0, passes.O2, passes.Os} {
					m := irgen.MustLower(version.code.Prog)
					passes.Optimize(m, lvl)
					v := norm.Apply(enc.Encode(m))
					pred := tree.Predict(v) == 1
					cells = append(cells, HypreCell{
						Training: training.Name, Features: feats.name, Opt: lvl,
						BuggyCode: version.buggy, Predicted: pred,
						Right: pred == version.buggy,
					})
				}
			}
		}
	}
	return cells
}
