package ir2vec

import (
	"math"
	"testing"

	. "mpidetect/internal/ast"
	"mpidetect/internal/dataset"
	"mpidetect/internal/ir"
	"mpidetect/internal/irgen"
	"mpidetect/internal/passes"
	"mpidetect/internal/tensor"
)

func progWith(send bool) *ir.Module {
	stmts := MPIBoilerplate()
	body := []Stmt{DeclArr("buf", 4, Int)}
	if send {
		body = append(body,
			CallS("MPI_Send", Id("buf"), I(4), Id("MPI_INT"), I(1), I(3), Id("MPI_COMM_WORLD")))
	} else {
		body = append(body,
			CallS("MPI_Recv", Id("buf"), I(4), Id("MPI_INT"), I(1), I(3), Id("MPI_COMM_WORLD"), Id("MPI_STATUS_IGNORE")))
	}
	stmts = append(stmts, body...)
	stmts = append(stmts, Finalize())
	return irgen.MustLower(MainProgram("p", stmts...))
}

func TestTrainAndEncode(t *testing.T) {
	m1, m2 := progWith(true), progWith(false)
	enc := Train([]*ir.Module{m1, m2}, 32, 1, 10)
	v1 := enc.Encode(m1)
	v2 := enc.Encode(m2)
	if len(v1) != 64 || len(v2) != 64 {
		t.Fatalf("encoding length %d, want 64 (2x dim)", len(v1))
	}
	if tensor.VecDist(v1, v2) == 0 {
		t.Error("different programs encoded identically")
	}
	// Identical programs encode identically.
	if tensor.VecDist(v1, enc.Encode(progWith(true))) != 0 {
		t.Error("identical programs encoded differently")
	}
}

func TestSimilarProgramsCloserThanDifferent(t *testing.T) {
	send := progWith(true)
	send2 := progWith(true)
	recv := progWith(false)
	enc := Train([]*ir.Module{send, recv}, 32, 1, 10)
	same := tensor.VecDist(enc.Encode(send), enc.Encode(send2))
	diff := tensor.VecDist(enc.Encode(send), enc.Encode(recv))
	if same > diff {
		t.Errorf("identical programs farther (%f) than different ones (%f)", same, diff)
	}
}

func TestSeedChangesEmbedding(t *testing.T) {
	m := progWith(true)
	e1 := Train([]*ir.Module{m}, 16, 1, 5)
	e2 := Train([]*ir.Module{m}, 16, 999, 5)
	if tensor.VecDist(e1.Encode(m), e2.Encode(m)) == 0 {
		t.Error("different seeds produced identical embeddings")
	}
}

func TestFallbackLookupIsDeterministic(t *testing.T) {
	e1 := Train(nil, 16, 5, 1)
	e2 := Train(nil, 16, 5, 1)
	a := e1.fallback([]byte("some-unseen-token"))
	b := e2.fallback([]byte("some-unseen-token"))
	if tensor.VecDist(a, b) != 0 {
		t.Error("fallback embedding not deterministic across encoders")
	}
	c := e1.fallback([]byte("other-token"))
	if tensor.VecDist(a, c) == 0 {
		t.Error("distinct tokens share a fallback embedding")
	}
}

// TestFitVocabCoversEncode checks on generated programs that FitVocab and
// Encode spell every entity token identically: after fitting the corpus,
// encoding it derives no fallback embedding (the scratch's OOV memo stays
// empty). Before the fit, the same programs must miss the trained table,
// so the check is not vacuous.
func TestFitVocabCoversEncode(t *testing.T) {
	var mods []*ir.Module
	for _, seed := range []int64{71, 72} {
		d := dataset.Merge("fresh", dataset.GenerateMBI(seed), dataset.GenerateCorrBench(seed, false))
		for i, c := range d.Shuffled(seed)[:32] {
			m := irgen.MustLower(c.Prog)
			if i%2 == 1 {
				passes.Optimize(m, passes.Os)
			}
			mods = append(mods, m)
		}
	}
	enc := Train(mods[:4], 16, 1, 2)
	encodeAll := func() int {
		s := scratchPool.Get().(*scratch)
		defer s.release()
		out := make([]float64, 2*enc.Dim)
		for _, m := range mods {
			enc.encodeInto(out, m, s)
		}
		return len(s.oov)
	}
	if n := encodeAll(); n == 0 {
		t.Fatal("unfitted encoder derived no fallback embeddings; the check below would be vacuous")
	}
	enc.FitVocab(mods)
	if n := encodeAll(); n != 0 {
		t.Errorf("encoding the fitted corpus derived %d fallback embeddings, want 0", n)
	}
}

func TestNormalizerVector(t *testing.T) {
	n := FitNormalizer(NormVector, nil)
	v := n.Apply([]float64{2, -8, 4})
	if tensor.VecMaxAbs(v) != 1 {
		t.Errorf("vector norm max = %f, want 1", tensor.VecMaxAbs(v))
	}
	if v[1] != -1 || v[0] != 0.25 {
		t.Errorf("vector norm wrong: %v", v)
	}
}

func TestNormalizerIndex(t *testing.T) {
	train := [][]float64{{2, 10}, {-4, 5}}
	n := FitNormalizer(NormIndex, train)
	v := n.Apply([]float64{2, 5})
	if math.Abs(v[0]-0.5) > 1e-12 || math.Abs(v[1]-0.5) > 1e-12 {
		t.Errorf("index norm wrong: %v", v)
	}
}

func TestNormalizerNoneIsIdentity(t *testing.T) {
	n := FitNormalizer(NormNone, nil)
	in := []float64{3, -7, 11}
	out := n.Apply(in)
	for i := range in {
		if in[i] != out[i] {
			t.Fatal("NormNone modified features")
		}
	}
	// And must not alias the input.
	out[0] = 99
	if in[0] == 99 {
		t.Error("Apply aliased its input")
	}
}

func TestFlowAwareDiffersFromSymbolic(t *testing.T) {
	m := progWith(true)
	enc := Train([]*ir.Module{m}, 16, 1, 5)
	v := enc.Encode(m)
	sym, flow := v[:16], v[16:]
	if tensor.VecDist(sym, flow) == 0 {
		t.Error("flow-aware encoding identical to symbolic")
	}
}
