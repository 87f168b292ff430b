package gnn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"flag"
	"math"
	"os"
	"testing"

	"mpidetect/internal/dataset"
	"mpidetect/internal/graphs"
	"mpidetect/internal/irgen"
)

// updateLogitsGolden regenerates testdata/logits_v1.gob from the current
// model. The committed artifact was produced by the dense (uncompacted)
// inference pass; regenerate only for a deliberate, reviewed change to
// training or inference arithmetic.
var updateLogitsGolden = flag.Bool("update-logits-golden", false,
	"regenerate testdata/logits_v1.gob with the current model")

const logitsGoldenPath = "testdata/logits_v1.gob"

// logitsGolden is the committed record: a digest of the trained
// parameters (so a mismatch says whether training or inference moved)
// and the Float64bits of every class probability of the golden set.
type logitsGolden struct {
	ParamDigest string
	Probs       [][]uint64
}

// goldenModel trains the fixed-seed tiny model and returns it with the
// fixed graph set: held-out and training CorrBench graphs plus MBI graphs
// of another generator seed, whose tokens are partly out of vocabulary
// and some of which carry call edges the CorrBench graphs never have.
func goldenModel(t *testing.T) (*Model, []*graphs.Graph) {
	t.Helper()
	train, test, vocab := corpusSample(t, 6)
	m := NewModel(tinyCfg(), vocab, 2)
	m.Train(train)
	var gs []*graphs.Graph
	for _, s := range test {
		gs = append(gs, s.G)
	}
	for _, s := range train[:4] {
		gs = append(gs, s.G)
	}
	for _, c := range dataset.GenerateMBI(1).Codes[:6] {
		gs = append(gs, graphs.Build(irgen.MustLower(c.Prog)))
	}
	return m, gs
}

// paramDigest hashes every parameter's name and value bits in
// registration order.
func paramDigest(m *Model) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range m.ps.List {
		h.Write([]byte(p.Name))
		for _, v := range p.Val.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func probBits(probs [][]float64) [][]uint64 {
	out := make([][]uint64, len(probs))
	for i, row := range probs {
		for _, v := range row {
			out[i] = append(out[i], math.Float64bits(v))
		}
	}
	return out
}

// TestLogitsGolden pins training and both prediction entry points to the
// committed artifact bit for bit. Batched/singleton agreement alone cannot
// catch a change that moves both paths together; this can.
func TestLogitsGolden(t *testing.T) {
	m, gs := goldenModel(t)
	got := logitsGolden{ParamDigest: paramDigest(m), Probs: probBits(m.PredictProbsBatch(gs))}
	if *updateLogitsGolden {
		f, err := os.Create(logitsGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(f).Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d probability rows to %s", len(got.Probs), logitsGoldenPath)
		return
	}
	f, err := os.Open(logitsGoldenPath)
	if err != nil {
		t.Fatalf("opening golden artifact (regenerate with -update-logits-golden): %v", err)
	}
	defer f.Close()
	var want logitsGolden
	if err := gob.NewDecoder(f).Decode(&want); err != nil {
		t.Fatal(err)
	}
	if got.ParamDigest != want.ParamDigest {
		t.Fatalf("trained parameters moved: digest %s, golden %s", got.ParamDigest, want.ParamDigest)
	}
	if len(want.Probs) != len(gs) {
		t.Fatalf("golden has %d rows, graph set has %d", len(want.Probs), len(gs))
	}
	check := func(path string, i int, row []uint64) {
		t.Helper()
		if len(row) != len(want.Probs[i]) {
			t.Fatalf("%s graph %d: %d classes, golden %d", path, i, len(row), len(want.Probs[i]))
		}
		for j, b := range row {
			if b != want.Probs[i][j] {
				t.Fatalf("%s graph %d class %d: prob %v, golden %v", path, i, j,
					math.Float64frombits(b), math.Float64frombits(want.Probs[i][j]))
			}
		}
	}
	for i, row := range got.Probs {
		check("batch", i, row)
	}
	for i, g := range gs {
		check("single", i, probBits([][]float64{m.PredictProbs(g)})[0])
	}
}

// defaultTrainDigest is paramDigest of a Default() model trained on
// corpusSample(6). Default fixes the gradient grouping (Workers), so the
// digest must not depend on the host's core count: make test-procs runs
// this test at GOMAXPROCS 1 and 4.
const defaultTrainDigest = "0cbfda1208ffad0ee03a4601e91fd63b4fffc9747a0f21c5739e4c8fdf7a838e"

// TestTrainDigest pins the weights Default() trains to a committed
// digest, so a configuration that reads the core count again fails on
// any host whose count differs from the one that wrote the digest.
func TestTrainDigest(t *testing.T) {
	train, _, vocab := corpusSample(t, 6)
	m := NewModel(Default(), vocab, 2)
	m.Train(train)
	if got := paramDigest(m); got != defaultTrainDigest {
		t.Fatalf("Default() training digest %s, want %s", got, defaultTrainDigest)
	}
}
