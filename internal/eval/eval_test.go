package eval

import (
	"testing"

	"mpidetect/internal/dataset"
	"mpidetect/internal/gnn"
	"mpidetect/internal/ir2vec"
	"mpidetect/internal/passes"
)

// smallCorr returns a reduced CorrBench corpus for fast harness tests.
func smallCorr() *dataset.Dataset {
	d := dataset.GenerateCorrBench(21, false)
	out := &dataset.Dataset{Name: d.Name}
	counts := map[dataset.Label]int{}
	for _, c := range d.Codes {
		if counts[c.Label] < 24 {
			counts[c.Label]++
			out.Codes = append(out.Codes, c)
		}
	}
	return out
}

func smallPipe() PipelineConfig {
	p := DefaultPipeline()
	p.Folds = 3
	p.UseGA = false
	return p
}

func TestStratifiedFolds(t *testing.T) {
	d := smallCorr()
	folds := stratifiedFolds(d.Codes, 4, 1)
	seen := map[int]bool{}
	n := 0
	for _, f := range folds {
		for _, i := range f {
			if seen[i] {
				t.Fatal("index appears in two folds")
			}
			seen[i] = true
			n++
		}
	}
	if n != len(d.Codes) {
		t.Fatalf("folds cover %d/%d codes", n, len(d.Codes))
	}
	// Stratification: each fold has both correct and incorrect codes.
	for k, f := range folds {
		c, inc := 0, 0
		for _, i := range f {
			if d.Codes[i].Incorrect() {
				inc++
			} else {
				c++
			}
		}
		if c == 0 || inc == 0 {
			t.Errorf("fold %d unbalanced: %d correct %d incorrect", k, c, inc)
		}
	}
}

func TestIR2VecIntraBeatsChance(t *testing.T) {
	d := smallCorr()
	ex := NewExtractor(48)
	c := IR2VecIntra(ex, d, smallPipe())
	if c.Total() != len(d.Codes) {
		t.Fatalf("verdicts %d != %d codes", c.Total(), len(d.Codes))
	}
	if c.Accuracy() < 0.7 {
		t.Errorf("intra accuracy %.3f below 0.7", c.Accuracy())
	}
}

func TestIR2VecCrossRuns(t *testing.T) {
	corr := smallCorr()
	mbi := dataset.GenerateMBI(21)
	small := &dataset.Dataset{Name: mbi.Name}
	counts := map[dataset.Label]int{}
	for _, c := range mbi.Codes {
		if counts[c.Label] < 12 {
			counts[c.Label]++
			small.Codes = append(small.Codes, c)
		}
	}
	ex := NewExtractor(48)
	c := IR2VecCross(ex, small, corr, smallPipe())
	if c.Total() != len(corr.Codes) {
		t.Fatalf("cross verdicts %d != %d", c.Total(), len(corr.Codes))
	}
	// Cross transfer is hard but must beat coin-flipping on this corpus.
	if c.Accuracy() < 0.5 {
		t.Errorf("cross accuracy %.3f below 0.5", c.Accuracy())
	}
}

func TestGNNIntraSmall(t *testing.T) {
	d := smallCorr()
	ex := NewExtractor(48)
	cfg := GNNScenarioConfig{Folds: 2,
		Model: gnn.Config{EmbedDim: 8, Hidden: []int{12, 8, 8}, LR: 3e-3,
			Epochs: 3, BatchSize: 8, Seed: 1, Workers: 1}}
	c := GNNIntra(ex, d, cfg)
	if c.Total() != len(d.Codes) {
		t.Fatalf("verdicts %d != %d codes", c.Total(), len(d.Codes))
	}
	if c.Accuracy() < 0.6 {
		t.Errorf("GNN intra accuracy %.3f below 0.6", c.Accuracy())
	}
}

func TestAblationExcludesLabel(t *testing.T) {
	d := smallCorr()
	ex := NewExtractor(48)
	acc := Ablation(ex, d, smallPipe(), []dataset.Label{dataset.MissingCall})
	v, ok := acc[dataset.MissingCall]
	if !ok {
		t.Fatal("ablation did not report the excluded label")
	}
	if v < 0 || v > 1 {
		t.Fatalf("ablation accuracy out of range: %f", v)
	}
}

func TestPerLabelAccuracyCoversLabels(t *testing.T) {
	d := smallCorr()
	ex := NewExtractor(48)
	acc := PerLabelAccuracy(ex, d, smallPipe())
	if _, ok := acc[dataset.Correct]; !ok {
		t.Error("per-label study missing Correct")
	}
	if _, ok := acc[dataset.ArgError]; !ok {
		t.Error("per-label study missing ArgError")
	}
	for l, v := range acc {
		if v < 0 || v > 1 {
			t.Errorf("%s accuracy %f out of range", l, v)
		}
	}
}

func TestExtractorCaches(t *testing.T) {
	d := smallCorr()
	ex := NewExtractor(32)
	enc := ex.Encoder(d, passes.Os, 1)
	f1 := ex.IR2VecFeatures(d, passes.Os, 1, enc)
	f2 := ex.IR2VecFeatures(d, passes.Os, 1, enc)
	if f1 != f2 {
		t.Error("feature cache miss for identical key")
	}
	g1 := ex.Graphs(d, passes.O0)
	g2 := ex.Graphs(d, passes.O0)
	if g1 != g2 {
		t.Error("graph cache miss for identical key")
	}
}

func TestHypreStudyShape(t *testing.T) {
	corr := smallCorr()
	mbi := dataset.GenerateMBI(31)
	small := &dataset.Dataset{Name: mbi.Name}
	counts := map[dataset.Label]int{}
	for _, c := range mbi.Codes {
		if counts[c.Label] < 10 {
			counts[c.Label]++
			small.Codes = append(small.Codes, c)
		}
	}
	ex := NewExtractor(48)
	p := smallPipe() // GA off: cells are "all"-features only
	cells := HypreStudy(ex, small, corr, p, 1)
	// 2 training suites x 1 feature set x 2 versions x 3 opt levels.
	if len(cells) != 12 {
		t.Fatalf("got %d cells, want 12", len(cells))
	}
	for _, c := range cells {
		if c.Right != (c.Predicted == c.BuggyCode) {
			t.Error("cell correctness inconsistent")
		}
	}
}

func TestNormalizationModesChangeFeatures(t *testing.T) {
	x := [][]float64{{10, -2}, {5, 4}}
	vNone := ir2vec.FitNormalizer(ir2vec.NormNone, x).Apply(x[0])
	vVec := ir2vec.FitNormalizer(ir2vec.NormVector, x).Apply(x[0])
	if vNone[0] == vVec[0] {
		t.Error("vector normalisation had no effect")
	}
}

func TestEncodingAblation(t *testing.T) {
	d := smallCorr()
	ex := NewExtractor(32)
	res := EncodingAblation(ex, d, smallPipe())
	for _, mode := range []string{"symbolic", "flow-aware", "concat"} {
		c, ok := res[mode]
		if !ok {
			t.Fatalf("missing mode %q", mode)
		}
		if c.Total() != len(d.Codes) {
			t.Errorf("%s covered %d/%d codes", mode, c.Total(), len(d.Codes))
		}
	}
}

func TestDepthAblationMonotoneCoverage(t *testing.T) {
	d := smallCorr()
	ex := NewExtractor(32)
	res := DepthAblation(ex, d, smallPipe(), []int{1, 0})
	if len(res) != 2 {
		t.Fatalf("depth ablation returned %d entries", len(res))
	}
	// A depth-1 stump should not beat the unlimited tree.
	if res[1].Accuracy() > res[0].Accuracy()+0.05 {
		t.Errorf("stump (%.3f) beat full tree (%.3f)", res[1].Accuracy(), res[0].Accuracy())
	}
}
