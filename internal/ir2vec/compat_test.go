package ir2vec

import (
	"bytes"
	"encoding/gob"
	"os"
	"testing"

	"mpidetect/internal/dataset"
	"mpidetect/internal/ir"
	"mpidetect/internal/irgen"
	"mpidetect/internal/passes"
	"mpidetect/internal/tensor"
)

// mbiCorpus rebuilds the deterministic corpus testdata/encoder_v1.gob was
// trained on: the first 64 MBI programs at -Os, encoder trained on the
// first 16 with dim 64, seed 1, 5 epochs, vocabulary fitted on all 64.
func mbiCorpus(t testing.TB) []*ir.Module {
	t.Helper()
	d := dataset.GenerateMBI(1)
	n := len(d.Codes)
	if n > 64 {
		n = 64
	}
	mods := make([]*ir.Module, n)
	for i := 0; i < n; i++ {
		m := irgen.MustLower(d.Codes[i].Prog)
		passes.Optimize(m, passes.Os)
		mods[i] = m
	}
	return mods
}

// TestLegacyArtifactBitForBit is the interning compatibility gate:
// testdata/encoder_v1.gob was serialised by the pre-interning, map-keyed
// encoder. Loading it through the flat-table decode path and retraining
// from scratch with the interned trainer must both reproduce the exact
// same vectors on the whole MBI corpus, bit for bit.
func TestLegacyArtifactBitForBit(t *testing.T) {
	raw, err := os.ReadFile("testdata/encoder_v1.gob")
	if err != nil {
		t.Fatalf("reading legacy artifact: %v", err)
	}
	var legacy Encoder
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&legacy); err != nil {
		t.Fatalf("decoding legacy artifact: %v", err)
	}
	mods := mbiCorpus(t)
	fresh := Train(mods[:16], 64, 1, 5)
	fresh.FitVocab(mods)
	if fresh.NumEntities() != legacy.NumEntities() {
		t.Fatalf("entity count: fresh %d, legacy %d", fresh.NumEntities(), legacy.NumEntities())
	}
	for i, m := range mods {
		a := fresh.Encode(m)
		b := legacy.Encode(m)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("module %d coordinate %d: fresh %v, legacy %v (not bit-for-bit)",
					i, j, a[j], b[j])
			}
		}
	}
}

// TestGobRoundTripBitForBit re-serialises an interned encoder and checks
// the reload encodes the corpus identically — including a second
// generation (save → load → save → load) so the flat layout is stable.
func TestGobRoundTripBitForBit(t *testing.T) {
	mods := mbiCorpus(t)
	enc := Train(mods[:16], 64, 1, 5)
	enc.FitVocab(mods)
	reload := func(e *Encoder) *Encoder {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(e); err != nil {
			t.Fatalf("encode: %v", err)
		}
		var out Encoder
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return &out
	}
	gen1 := reload(enc)
	gen2 := reload(gen1)
	for i, m := range mods {
		want := enc.Encode(m)
		for _, got := range [][]float64{gen1.Encode(m), gen2.Encode(m)} {
			if tensor.VecDist(want, got) != 0 {
				t.Fatalf("module %d: round-tripped encoder diverged", i)
			}
		}
	}
}

// TestGobRejectsCorruptState checks the decode-time shape validation.
func TestGobRejectsCorruptState(t *testing.T) {
	cases := []encoderState{
		{Dim: 0},
		{Dim: 4, Toks: []string{"a"}, Vecs: []float64{1, 2}},
		{Dim: 4, Toks: []string{"a", "a"}, Vecs: make([]float64, 8)},
		{Dim: 4, Ent: map[string][]float64{"a": {1, 2}}},
		{Dim: 4, Rel: map[string][]float64{"next": {1}}},
	}
	for i, st := range cases {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		var e Encoder
		if err := e.GobDecode(buf.Bytes()); err == nil {
			t.Errorf("case %d: corrupt state decoded without error", i)
		}
	}
}

// TestEncodeAllocs pins the zero-alloc encode: the pre-interning
// implementation allocated a fallback memo map, two per-instruction
// vector maps and one fresh vector per instruction on every call (~772
// allocations on this corpus). The pooled-scratch path must stay at the
// returned feature vector plus low single digits of pool noise, so the
// per-call map can never quietly come back.
func TestEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector (sync.Pool caching is disabled)")
	}
	mods := mbiCorpus(t)
	enc := Train(mods[:16], 64, 1, 5)
	enc.FitVocab(mods)
	for _, m := range mods[:8] {
		m := m
		enc.Encode(m) // warm the scratch pool
		allocs := testing.AllocsPerRun(50, func() { enc.Encode(m) })
		if allocs > 3 {
			t.Fatalf("Encode allocates %v times per call, want <= 3 (feature vector + pool noise)", allocs)
		}
	}
}

// TestEncodeOOVStillMemoises checks that encoding a module whose tokens
// were never fitted still works and stays deterministic (the scratch memo
// replaced the old per-call map).
func TestEncodeOOVStillMemoises(t *testing.T) {
	mods := mbiCorpus(t)
	enc := Train(nil, 32, 7, 1) // empty table: every token is OOV
	a := enc.Encode(mods[0])
	b := enc.Encode(mods[0])
	if tensor.VecDist(a, b) != 0 {
		t.Fatal("OOV encoding is not deterministic across calls")
	}
	fitted := Train(nil, 32, 7, 1)
	fitted.FitVocab(mods[:1])
	c := fitted.Encode(mods[0])
	if tensor.VecDist(a, c) != 0 {
		t.Fatal("fitted vocabulary changed the encoding of the same module")
	}
}

// TestScratchRPOMatchesIR pins the scratch reverse-postorder (used by the
// zero-alloc flow-aware pass) to ir.ReversePostorder over every function
// of the MBI corpus plus hand-built CFG shapes (diamond, loop,
// unreachable block). If a future terminator extends ir.Block.Succs, this
// is the test that catches the traversals diverging.
func TestScratchRPOMatchesIR(t *testing.T) {
	check := func(f *ir.Func) {
		t.Helper()
		want := ir.ReversePostorder(f)
		s := scratchPool.Get().(*scratch)
		s.gen++
		got := s.rpo(f)
		if len(got) != len(want) {
			t.Fatalf("%s: rpo length %d, want %d", f.Name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: rpo block %d differs", f.Name, i)
			}
		}
		s.release()
	}
	for _, m := range mbiCorpus(t) {
		for _, f := range m.Funcs {
			if !f.Decl {
				check(f)
			}
		}
	}
	// Diamond with a loop back-edge and an unreachable block.
	m := ir.NewModule("cfg")
	f := m.AddFunc(&ir.Func{Name: "f", Sig: ir.FuncOf(ir.I32)})
	b := ir.NewBuilder(f)
	entry := b.Cur
	left := b.NewBlock("left")
	right := b.NewBlock("right")
	join := b.NewBlock("join")
	dead := b.NewBlock("dead")
	b.SetBlock(entry)
	cond := b.ICmp(ir.PredSLT, ir.ConstInt(ir.I32, 1), ir.ConstInt(ir.I32, 2))
	b.CondBr(cond, left, right)
	b.SetBlock(left)
	b.Br(join)
	b.SetBlock(right)
	b.CondBr(cond, join, entry) // back edge
	b.SetBlock(join)
	b.Ret(ir.ConstInt(ir.I32, 0))
	b.SetBlock(dead)
	b.Ret(ir.ConstInt(ir.I32, 1))
	check(f)
}

// TestEncodeBatchBitForBit pins the flat batch encoder to per-module
// Encode (a batch of one), bit for bit: the batch path shares one scratch
// across programs, which must never leak state between them.
func TestEncodeBatchBitForBit(t *testing.T) {
	mods := mbiCorpus(t)
	enc := Train(mods[:16], 64, 1, 5)
	enc.FitVocab(mods)
	batch := enc.EncodeBatch(mods)
	if len(batch) != len(mods)*2*enc.Dim {
		t.Fatalf("batch length %d, want %d", len(batch), len(mods)*2*enc.Dim)
	}
	for i, m := range mods {
		want := enc.Encode(m)
		got := batch[i*2*enc.Dim : (i+1)*2*enc.Dim]
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("module %d coordinate %d: batch %v, single %v", i, j, got[j], want[j])
			}
		}
	}
}
