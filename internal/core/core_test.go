package core

import (
	"testing"

	"mpidetect/internal/dataset"
	"mpidetect/internal/gnn"
	"mpidetect/internal/ir"
	"mpidetect/internal/irgen"
	"mpidetect/internal/passes"
)

func trainingSlice(seed int64, per int) *dataset.Dataset {
	d := dataset.GenerateCorrBench(seed, false)
	out := &dataset.Dataset{Name: d.Name}
	counts := map[dataset.Label]int{}
	for _, c := range d.Codes {
		if counts[c.Label] < per {
			counts[c.Label]++
			out.Codes = append(out.Codes, c)
		}
	}
	return out
}

func TestIR2VecDetectorEndToEnd(t *testing.T) {
	train := trainingSlice(1, 40)
	cfg := DefaultIR2VecConfig()
	cfg.Dim = 64
	det, err := TrainIR2Vec(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate on held-out codes of the same generator family.
	test := trainingSlice(2, 20)
	correct := 0
	for _, c := range test.Codes {
		v, err := CheckProgram(det, c.Prog)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if v.Incorrect == c.Incorrect() {
			correct++
		}
	}
	acc := float64(correct) / float64(len(test.Codes))
	if acc < 0.7 {
		t.Errorf("detector accuracy %.2f < 0.7", acc)
	}
}

func TestIR2VecMultiClass(t *testing.T) {
	train := trainingSlice(3, 40)
	cfg := DefaultIR2VecConfig()
	cfg.Dim = 64
	cfg.MultiClass = true
	det, err := TrainIR2Vec(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := CheckProgram(det, train.Codes[0].Prog)
	if err != nil {
		t.Fatal(err)
	}
	if v.Label != train.Codes[0].Label {
		// Training-set prediction should usually be right for a tree grown
		// to purity; tolerate mismatch only if labels are at least valid.
		t.Logf("multi-class label %v vs truth %v", v.Label, train.Codes[0].Label)
	}
}

func TestGNNDetectorEndToEnd(t *testing.T) {
	train := trainingSlice(4, 24)
	cfg := DefaultGNNConfig()
	cfg.Model = gnn.Config{EmbedDim: 8, Hidden: []int{12, 8}, LR: 3e-3,
		Epochs: 3, BatchSize: 8, Seed: 1, Workers: 1}
	det, err := TrainGNN(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := CheckProgram(det, train.Codes[0].Prog)
	if err != nil {
		t.Fatal(err)
	}
	if v.Confidence < 0.5 || v.Confidence > 1 {
		t.Errorf("confidence %f out of range", v.Confidence)
	}
}

func TestCheckModuleDirect(t *testing.T) {
	train := trainingSlice(5, 30)
	cfg := DefaultIR2VecConfig()
	cfg.Dim = 48
	det, err := TrainIR2Vec(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := irgen.MustLower(train.Codes[0].Prog)
	passes.Optimize(m, passes.Os)
	vs, err := det.CheckModules([]*ir.Module{m})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("%d verdicts for a batch of one", len(vs))
	}
}

// strided picks n codes spread evenly across d, so a sample of a
// generated suite mixes correct and incorrect programs.
func strided(d *dataset.Dataset, n int) []*dataset.Code {
	step := len(d.Codes) / n
	if step < 1 {
		step = 1
	}
	var out []*dataset.Code
	for i := 0; i < len(d.Codes) && len(out) < n; i += step {
		out = append(out, d.Codes[i])
	}
	return out
}

// TestCheckModulesBatchSizeIndependent pins both detector families'
// batch path to the batch of one: MBI and CorrBench programs from fresh
// generator seeds, classified in batches of every size 1–8, get the
// verdict that module gets alone, bit for bit (labels and confidences
// included).
func TestCheckModulesBatchSizeIndependent(t *testing.T) {
	train := trainingSlice(6, 24)
	irCfg := DefaultIR2VecConfig()
	irCfg.Dim = 48
	irDet, err := TrainIR2Vec(train, irCfg)
	if err != nil {
		t.Fatal(err)
	}
	gnnCfg := DefaultGNNConfig()
	gnnCfg.Model = gnn.Config{EmbedDim: 8, Hidden: []int{12, 8}, LR: 3e-3,
		Epochs: 2, BatchSize: 8, Seed: 1, Workers: 1}
	gnnDet, err := TrainGNN(train, gnnCfg)
	if err != nil {
		t.Fatal(err)
	}
	var codes []*dataset.Code
	for _, seed := range []int64{41, 42} {
		codes = append(codes, strided(dataset.GenerateMBI(seed), 10)...)
		codes = append(codes, strided(dataset.GenerateCorrBench(seed, false), 10)...)
	}
	incorrect := 0
	for _, c := range codes {
		if c.Incorrect() {
			incorrect++
		}
	}
	if incorrect == 0 || incorrect == len(codes) {
		t.Fatalf("sample of %d programs has %d incorrect; want a mix", len(codes), incorrect)
	}
	for _, det := range []Detector{irDet, gnnDet} {
		mods := make([]*ir.Module, len(codes))
		alone := make([]Verdict, len(codes))
		for i, c := range codes {
			m, err := compile(c.Prog, det.Opt())
			if err != nil {
				t.Fatalf("%s: compiling %s: %v", det.Name(), c.Name, err)
			}
			mods[i] = m
			if alone[i], err = checkOne(det, m); err != nil {
				t.Fatalf("%s: %s alone: %v", det.Name(), c.Name, err)
			}
		}
		for size := 1; size <= 8; size++ {
			for lo := 0; lo < len(mods); lo += size {
				hi := min(lo+size, len(mods))
				got, err := det.CheckModules(mods[lo:hi])
				if err != nil {
					t.Fatalf("%s: CheckModules(batch of %d): %v", det.Name(), hi-lo, err)
				}
				if len(got) != hi-lo {
					t.Fatalf("%s: %d verdicts for %d modules", det.Name(), len(got), hi-lo)
				}
				for k, v := range got {
					if v != alone[lo+k] {
						t.Fatalf("%s: %s in a batch of %d: %+v, alone %+v",
							det.Name(), codes[lo+k].Name, hi-lo, v, alone[lo+k])
					}
				}
			}
		}
	}
}
