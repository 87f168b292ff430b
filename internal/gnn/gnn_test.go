package gnn

import (
	"math/rand"
	"testing"

	"mpidetect/internal/dataset"
	"mpidetect/internal/graphs"
	"mpidetect/internal/irgen"
)

// tinyCfg keeps unit tests fast.
func tinyCfg() Config {
	return Config{EmbedDim: 12, Hidden: []int{16, 12, 8}, LR: 3e-3,
		Epochs: 8, BatchSize: 8, Seed: 3, Workers: 2}
}

// corpusSample builds graphs for n codes of each class from the CorrBench
// generator (small programs -> fast tests).
func corpusSample(t *testing.T, n int) ([]Sample, []Sample, *graphs.Vocab) {
	t.Helper()
	d := dataset.GenerateCorrBench(99, false)
	var correct, incorrect []*graphs.Graph
	for _, c := range d.Codes {
		if c.Label == dataset.Correct && len(correct) < 2*n {
			correct = append(correct, graphs.Build(irgen.MustLower(c.Prog)))
		}
		if c.Label == dataset.ArgError && len(incorrect) < 2*n {
			incorrect = append(incorrect, graphs.Build(irgen.MustLower(c.Prog)))
		}
	}
	var all []*graphs.Graph
	all = append(all, correct...)
	all = append(all, incorrect...)
	vocab := graphs.BuildVocab(all)
	var train, test []Sample
	for i, g := range correct {
		if i < n {
			train = append(train, Sample{G: g, Label: 0})
		} else {
			test = append(test, Sample{G: g, Label: 0})
		}
	}
	for i, g := range incorrect {
		if i < n {
			train = append(train, Sample{G: g, Label: 1})
		} else {
			test = append(test, Sample{G: g, Label: 1})
		}
	}
	return train, test, vocab
}

func TestGraphBuild(t *testing.T) {
	d := dataset.GenerateCorrBench(1, false)
	g := graphs.Build(irgen.MustLower(d.Codes[0].Prog))
	if len(g.Nodes) == 0 || len(g.Edges) == 0 {
		t.Fatal("empty graph")
	}
	counts := g.NumByKind()
	if counts[graphs.KindInstr] == 0 || counts[graphs.KindVar] == 0 || counts[graphs.KindConst] == 0 {
		t.Errorf("node kinds missing: %v", counts)
	}
	// Every edge endpoint must be in range.
	for _, e := range g.Edges {
		if e.Src < 0 || e.Src >= len(g.Nodes) || e.Dst < 0 || e.Dst >= len(g.Nodes) {
			t.Fatal("edge endpoint out of range")
		}
	}
	// MPI calls must appear as tokens.
	found := false
	for _, n := range g.Nodes {
		if n.Kind == graphs.KindInstr && len(n.Token) > 9 && n.Token[:9] == "call:MPI_" {
			found = true
		}
	}
	if !found {
		t.Error("no MPI call tokens in graph")
	}
}

func TestVocab(t *testing.T) {
	d := dataset.GenerateCorrBench(2, false)
	g1 := graphs.Build(irgen.MustLower(d.Codes[0].Prog))
	v := graphs.BuildVocab([]*graphs.Graph{g1})
	if v.Size() < 5 {
		t.Fatalf("vocab too small: %d", v.Size())
	}
	if v.ID("never-seen-token") != v.OOV {
		t.Error("unknown token did not map to OOV")
	}
	if v.ID(g1.Nodes[0].Token) == v.OOV {
		t.Error("known token mapped to OOV")
	}
}

func TestTrainLearnsSeparableTask(t *testing.T) {
	train, test, vocab := corpusSample(t, 12)
	m := NewModel(tinyCfg(), vocab, 2)
	m.Train(train)
	correct := 0
	for _, s := range test {
		if m.Predict(s.G) == s.Label {
			correct++
		}
	}
	acc := float64(correct) / float64(len(test))
	if acc < 0.7 {
		t.Errorf("test accuracy %.2f < 0.7 on a separable task (%d/%d)", acc, correct, len(test))
	}
}

func TestPredictProbsSumToOne(t *testing.T) {
	train, _, vocab := corpusSample(t, 4)
	m := NewModel(tinyCfg(), vocab, 2)
	p := m.PredictProbs(train[0].G)
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("probs sum to %g", sum)
	}
}

func TestDeterministicTraining(t *testing.T) {
	train, test, vocab := corpusSample(t, 6)
	cfg := tinyCfg()
	cfg.Epochs = 2
	m1 := NewModel(cfg, vocab, 2)
	m1.Train(train)
	m2 := NewModel(cfg, vocab, 2)
	m2.Train(train)
	for _, s := range test {
		if m1.Predict(s.G) != m2.Predict(s.G) {
			t.Fatal("training is nondeterministic for identical seeds")
		}
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	// Gradient accumulation across workers must not change results.
	train, test, vocab := corpusSample(t, 6)
	cfg := tinyCfg()
	cfg.Epochs = 2
	cfg.Workers = 1
	m1 := NewModel(cfg, vocab, 2)
	m1.Train(train)
	cfg.Workers = 4
	m2 := NewModel(cfg, vocab, 2)
	m2.Train(train)
	diff := 0
	for _, s := range test {
		if m1.Predict(s.G) != m2.Predict(s.G) {
			diff++
		}
	}
	if diff > len(test)/4 {
		t.Errorf("worker count changed %d/%d predictions", diff, len(test))
	}
	_ = rand.Int
}
