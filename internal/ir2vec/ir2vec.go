// Package ir2vec reimplements the IR2Vec program embedding (VenkataKeerthy
// et al., TACO 2020) used by the paper's first model (§IV-A): seed
// embeddings for IR entities learned with a TransE-style relational
// objective, composed into per-instruction vectors (symbolic encoding) and
// augmented with use-def flow information (flow-aware encoding). Each
// encoding yields one vector per compilation unit; the paper concatenates
// both encodings into the feature vector a decision tree classifies.
//
// Entity storage is interned: tokens resolve once to dense ids in an
// intern.Table and the embeddings live in one flat []float64 indexed by
// id*Dim, so the Encode hot path does no string hashing against maps and
// no per-call map allocation — per-call working state lives in a pooled
// scratch buffer and the only allocation per Encode is the returned
// feature vector.
package ir2vec

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync"

	"mpidetect/internal/graphs"
	"mpidetect/internal/intern"
	"mpidetect/internal/ir"
	"mpidetect/internal/tensor"
)

// Dim is the per-encoding embedding dimensionality used by the paper
// (256 per encoding, 512 after concatenation).
const Dim = 256

// Composition weights of the symbolic encoding (opcode, type, arguments),
// following IR2Vec's published heuristic weights.
const (
	wOpc  = 1.0
	wType = 0.5
	wArg  = 0.2
	// flowBeta damps the contribution of reaching definitions in the
	// flow-aware encoding.
	flowBeta = 0.3
)

// Encoder holds trained seed embeddings. Encoding is two-phase: Train (or
// Load) and optionally FitVocab mutate the entity table; after that, Encode
// is read-only and safe for concurrent use from any number of goroutines.
//
// Entities are interned: tab maps each token to a dense id and vecs holds
// the embedding of id i at vecs[i*Dim : (i+1)*Dim]. Relations (a handful
// of TransE edge labels, used only during Train) get the same layout in
// relTab/relVecs.
type Encoder struct {
	Dim  int
	Seed int64

	tab  *intern.Table
	vecs []float64

	relTab  *intern.Table
	relVecs []float64
}

// newEncoder returns an empty encoder shell with interning tables ready.
func newEncoder(dim int, seed int64) *Encoder {
	return &Encoder{Dim: dim, Seed: seed,
		tab: intern.New(), relTab: intern.New()}
}

// vec returns the embedding row of an interned entity id.
func (e *Encoder) vec(id intern.ID) []float64 {
	off := int(id) * e.Dim
	return e.vecs[off : off+e.Dim : off+e.Dim]
}

// relVec returns the embedding row of an interned relation id.
func (e *Encoder) relVec(id intern.ID) []float64 {
	off := int(id) * e.Dim
	return e.relVecs[off : off+e.Dim : off+e.Dim]
}

// encoderState is the exported gob mirror of Encoder. Version 1 artifacts
// carried the entity table as the Ent map; the interned layout stores the
// id-ordered token list plus the flat value array instead. Decode accepts
// both: gob tolerates absent fields, so an old artifact populates Ent and
// a new one populates Toks/Vecs.
type encoderState struct {
	Dim  int
	Seed int64
	Ent  map[string][]float64 // v1 layout; nil when Toks/Vecs are set
	Rel  map[string][]float64
	Toks []string
	Vecs []float64
}

// GobEncode implements gob.GobEncoder, exposing the trained tables in the
// interned (v2) layout.
func (e *Encoder) GobEncode() ([]byte, error) {
	rel := map[string][]float64{}
	if e.relTab != nil {
		for i, tok := range e.relTab.Tokens() {
			rel[tok] = e.relVec(intern.ID(i))
		}
	}
	var toks []string
	if e.tab != nil {
		toks = e.tab.Tokens()
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(encoderState{
		Dim: e.Dim, Seed: e.Seed, Rel: rel,
		Toks: toks, Vecs: e.vecs})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder. It reads both the interned layout
// and the legacy v1 map layout, converting the latter to flat storage (in
// sorted token order, for deterministic re-serialisation).
func (e *Encoder) GobDecode(b []byte) error {
	var st encoderState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return err
	}
	if st.Dim <= 0 {
		return fmt.Errorf("ir2vec: corrupt encoder state: dim %d", st.Dim)
	}
	e.Dim, e.Seed = st.Dim, st.Seed
	e.tab, e.vecs = intern.New(), nil
	switch {
	case len(st.Toks) > 0 || len(st.Vecs) > 0:
		if len(st.Vecs) != len(st.Toks)*st.Dim {
			return fmt.Errorf("ir2vec: corrupt encoder state: %d tokens but %d values (dim %d)",
				len(st.Toks), len(st.Vecs), st.Dim)
		}
		e.tab = intern.FromTokens(st.Toks)
		if e.tab.Len() != len(st.Toks) {
			return fmt.Errorf("ir2vec: corrupt encoder state: duplicate entity tokens")
		}
		e.vecs = st.Vecs
	case st.Ent != nil:
		toks := make([]string, 0, len(st.Ent))
		for tok := range st.Ent {
			toks = append(toks, tok)
		}
		sort.Strings(toks)
		e.vecs = make([]float64, 0, len(toks)*st.Dim)
		for _, tok := range toks {
			v := st.Ent[tok]
			if len(v) != st.Dim {
				return fmt.Errorf("ir2vec: corrupt encoder state: entity %q has %d values (dim %d)",
					tok, len(v), st.Dim)
			}
			e.tab.Intern(tok)
			e.vecs = append(e.vecs, v...)
		}
	}
	e.relTab, e.relVecs = intern.New(), nil
	relToks := make([]string, 0, len(st.Rel))
	for tok := range st.Rel {
		relToks = append(relToks, tok)
	}
	sort.Strings(relToks)
	for _, tok := range relToks {
		v := st.Rel[tok]
		if len(v) != st.Dim {
			return fmt.Errorf("ir2vec: corrupt encoder state: relation %q has %d values (dim %d)",
				tok, len(v), st.Dim)
		}
		e.relTab.Intern(tok)
		e.relVecs = append(e.relVecs, v...)
	}
	return nil
}

// triple is one (head, relation, tail) fact for TransE, in interned ids.
type triple struct {
	h, t intern.ID
	r    intern.ID
}

// extractTriples harvests relational facts from a corpus: opcode--type
// pairs, opcode--argument pairs, and sequential opcode--opcode pairs.
// Tokens are interned on first sight, so entity ids follow first-seen
// corpus order exactly like the legacy map-based implementation assigned
// embeddings.
func (e *Encoder) extractTriples(mods []*ir.Module) []triple {
	seen := map[triple]bool{}
	var out []triple
	add := func(tr triple) {
		if !seen[tr] {
			seen[tr] = true
			out = append(out, tr)
		}
	}
	relTypeof := e.relTab.Intern("typeof")
	relArg := e.relTab.Intern("arg")
	relNext := e.relTab.Intern("next")
	var buf []byte
	for _, m := range mods {
		for _, f := range m.Funcs {
			if f.Decl {
				continue
			}
			for _, b := range f.Blocks {
				prev := intern.ID(-1)
				for _, in := range b.Instrs {
					buf = graphs.AppendInstrToken(buf[:0], in)
					opcID := e.tab.InternBytes(buf)
					buf = graphs.AppendTypeToken(buf[:0], in.Type())
					add(triple{h: opcID, r: relTypeof, t: e.tab.InternBytes(buf)})
					for _, a := range in.Args {
						buf = graphs.AppendValueToken(buf[:0], a)
						add(triple{h: opcID, r: relArg, t: e.tab.InternBytes(buf)})
					}
					if prev >= 0 {
						add(triple{h: prev, r: relNext, t: opcID})
					}
					prev = opcID
				}
			}
		}
	}
	return out
}

// Train learns seed embeddings from the corpus with a margin-based TransE
// objective. The seed parameter is the "Seeds" knob studied in §V-A:
// changing it regenerates a different (but equally valid) embedding basis.
func Train(mods []*ir.Module, dim int, seed int64, epochs int) *Encoder {
	if dim <= 0 {
		dim = Dim
	}
	e := newEncoder(dim, seed)
	rng := rand.New(rand.NewSource(seed))
	triples := e.extractTriples(mods)
	// Initialise embeddings in first-seen triple order (head, tail, then
	// relation), drawing from the rng in exactly the sequence the legacy
	// map-based trainer used so trained tables stay bit-for-bit identical.
	e.vecs = make([]float64, e.tab.Len()*dim)
	e.relVecs = make([]float64, e.relTab.Len()*dim)
	entInit := make([]bool, e.tab.Len())
	relInit := make([]bool, e.relTab.Len())
	for _, tr := range triples {
		for _, id := range [2]intern.ID{tr.h, tr.t} {
			if !entInit[id] {
				entInit[id] = true
				fillRandUnit(rng, e.vec(id))
			}
		}
		if !relInit[tr.r] {
			relInit[tr.r] = true
			fillRandUnit(rng, e.relVec(tr.r))
		}
	}
	nEnt := e.tab.Len()
	if nEnt == 0 {
		return e
	}
	const (
		margin = 1.0
		lr     = 0.01
	)
	order := make([]int, len(triples))
	for i := range order {
		order[i] = i
	}
	for ep := 0; ep < epochs; ep++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, ti := range order {
			tr := triples[ti]
			h, r, t := e.vec(tr.h), e.relVec(tr.r), e.vec(tr.t)
			// Negative sample: corrupt the tail. Entity ids are assigned in
			// first-seen order, so sampling an id uniformly matches the
			// legacy draw from the first-seen entity list.
			neg := e.vec(intern.ID(rng.Intn(nEnt)))
			dPos := transDist(h, r, t)
			dNeg := transDist(h, r, neg)
			if dPos+margin <= dNeg {
				continue
			}
			// Gradient of max(0, margin + dPos - dNeg) wrt the embeddings,
			// with d(x) = ||h + r - x||^2 (squared L2 for simple gradients).
			for i := 0; i < dim; i++ {
				gp := 2 * (h[i] + r[i] - t[i])
				gn := 2 * (h[i] + r[i] - neg[i])
				h[i] -= lr * (gp - gn)
				r[i] -= lr * (gp - gn)
				t[i] -= lr * (-gp)
				neg[i] -= lr * gn
			}
		}
		// Renormalise entities to the unit ball.
		for id := 0; id < nEnt; id++ {
			v := e.vec(intern.ID(id))
			if n := tensor.VecNorm(v); n > 1 {
				tensor.VecScale(v, 1/n)
			}
		}
	}
	return e
}

func transDist(h, r, t []float64) float64 {
	s := 0.0
	for i := range h {
		d := h[i] + r[i] - t[i]
		s += d * d
	}
	return s
}

func randUnit(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	fillRandUnit(rng, v)
	return v
}

// fillRandUnit fills v with the N(0,1)/sqrt(dim) draw randUnit made.
func fillRandUnit(rng *rand.Rand, v []float64) {
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	tensor.VecScale(v, 1/math.Sqrt(float64(len(v))))
}

// fallback derives the deterministic embedding of an out-of-vocabulary
// entity from its FNV hash and the encoder seed.
func (e *Encoder) fallback(tok []byte) []float64 {
	hash := fnv.New64a()
	_, _ = hash.Write(tok)
	rng := rand.New(rand.NewSource(int64(hash.Sum64()) ^ e.Seed))
	return randUnit(rng, e.Dim)
}

// FitVocab precomputes fallback embeddings for every entity of the corpus
// that seed training did not cover, so subsequent Encode calls resolve all
// tokens with pure table hits. This is the optional second phase of the
// two-phase protocol: train (or load) the encoder, fit the corpus
// vocabulary once, then encode lock-free from any number of goroutines.
// FitVocab mutates the encoder and must not run concurrently with Encode.
func (e *Encoder) FitVocab(mods []*ir.Module) {
	var buf []byte
	fit := func(tok []byte) {
		if _, ok := e.tab.ResolveBytes(tok); !ok {
			v := e.fallback(tok)
			e.tab.InternBytes(tok)
			e.vecs = append(e.vecs, v...)
		}
	}
	for _, m := range mods {
		for _, f := range m.Funcs {
			if f.Decl {
				continue
			}
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					for _, a := range in.Args {
						buf = graphs.AppendValueToken(buf[:0], a)
						fit(buf)
					}
					buf = graphs.AppendInstrToken(buf[:0], in)
					fit(buf)
					buf = graphs.AppendTypeToken(buf[:0], in.Type())
					fit(buf)
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Encoding (read-only hot path).
// ---------------------------------------------------------------------------

// instrPos locates an instruction inside the scratch state of the function
// currently being encoded; entries from previous functions are invalidated
// by the generation counter instead of by clearing the map.
type instrPos struct {
	gen uint32
	i   int32
}

// scratch is the pooled per-Encode working state: the reusable token
// buffer, the flat per-instruction vector storage (symbolic then
// flow-aware halves), the instruction index, reverse-postorder scratch,
// and the out-of-vocabulary fallback memo that replaced the per-call
// map allocation of the pre-interning implementation.
type scratch struct {
	gen  uint32
	buf  []byte
	vecs []float64 // 2*n*dim: rows [0,n) symbolic, rows [n,2n) flow-aware
	idx  map[*ir.Instr]instrPos
	done []uint32 // done[i] == gen once instruction i's flow vector is final

	seen  map[*ir.Block]uint32
	post  []*ir.Block
	order []*ir.Block

	oov map[string][]float64
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{
		idx:  map[*ir.Instr]instrPos{},
		seen: map[*ir.Block]uint32{},
		oov:  map[string][]float64{},
	}
}}

// release drops every module reference (map keys, block pointers in the
// RPO slices' backing arrays) before the scratch goes back to the pool,
// so an idle pool never pins dead IR. clear() keeps the map buckets and
// slice capacity, so steady-state encoding still allocates nothing.
func (s *scratch) release() {
	clear(s.oov)
	clear(s.idx)
	clear(s.seen)
	clear(s.post[:cap(s.post)])
	s.post = s.post[:0]
	clear(s.order[:cap(s.order)])
	s.order = s.order[:0]
	scratchPool.Put(s)
}

// grow readies the scratch for a function with n instructions.
func (s *scratch) grow(n, dim int) {
	if need := 2 * n * dim; cap(s.vecs) < need {
		s.vecs = make([]float64, need)
	} else {
		s.vecs = s.vecs[:need]
	}
	if cap(s.done) < n {
		s.done = make([]uint32, n)
	} else {
		s.done = s.done[:n]
	}
}

// dfs pushes b's postorder traversal into s.post, visiting successors in
// the same order as ir.ReversePostorder (branch target, then else target).
func (s *scratch) dfs(b *ir.Block) {
	s.seen[b] = s.gen
	if t := b.Term(); t != nil {
		switch t.Op {
		case ir.OpBr:
			if s.seen[t.Blocks[0]] != s.gen {
				s.dfs(t.Blocks[0])
			}
		case ir.OpCondBr:
			if s.seen[t.Blocks[0]] != s.gen {
				s.dfs(t.Blocks[0])
			}
			if s.seen[t.Blocks[1]] != s.gen {
				s.dfs(t.Blocks[1])
			}
		}
	}
	s.post = append(s.post, b)
}

// rpo computes f's reverse postorder into s.order without allocating,
// matching ir.ReversePostorder (unreachable blocks appended in declaration
// order).
func (s *scratch) rpo(f *ir.Func) []*ir.Block {
	s.post = s.post[:0]
	s.order = s.order[:0]
	if e := f.Entry(); e != nil {
		s.dfs(e)
	}
	for i := len(s.post) - 1; i >= 0; i-- {
		s.order = append(s.order, s.post[i])
	}
	for _, b := range f.Blocks {
		if s.seen[b] != s.gen {
			s.order = append(s.order, b)
		}
	}
	return s.order
}

// lookupBytes resolves a token assembled in the scratch buffer: an
// interned table row when known, otherwise a deterministic fallback
// memoised in the scratch for this call only (so repeated OOV tokens cost
// one computation without mutating the encoder's shared table).
func (e *Encoder) lookupBytes(tok []byte, s *scratch) []float64 {
	if id, ok := e.tab.ResolveBytes(tok); ok {
		return e.vec(id)
	}
	if v, ok := s.oov[string(tok)]; ok {
		return v
	}
	v := e.fallback(tok)
	s.oov[string(tok)] = v
	return v
}

// addInstrTokens accumulates the weighted entity embeddings of in into v:
// the symbolic per-instruction encoding.
func (e *Encoder) addInstrTokens(v []float64, in *ir.Instr, s *scratch) {
	s.buf = graphs.AppendInstrToken(s.buf[:0], in)
	tensor.VecAddScaled(v, wOpc, e.lookupBytes(s.buf, s))
	s.buf = graphs.AppendTypeToken(s.buf[:0], in.Type())
	tensor.VecAddScaled(v, wType, e.lookupBytes(s.buf, s))
	for _, a := range in.Args {
		s.buf = graphs.AppendValueToken(s.buf[:0], a)
		tensor.VecAddScaled(v, wArg, e.lookupBytes(s.buf, s))
	}
}

// Encoding selects which of the two encodings to emit.
type Encoding int

// Encoding modes. The paper concatenates both (EncBoth); the symbolic- and
// flow-only modes exist for the design-choice ablation bench.
const (
	EncBoth Encoding = iota
	EncSymbolic
	EncFlowAware
)

// String names the encoding.
func (e Encoding) String() string {
	switch e {
	case EncSymbolic:
		return "symbolic"
	case EncFlowAware:
		return "flow-aware"
	default:
		return "concat"
	}
}

// Encode returns the concatenated [symbolic || flow-aware] vector of the
// module (2*Dim features): EncodeBatch on a batch of one, so the returned
// slice is the only allocation on a vocabulary-fitted corpus.
func (e *Encoder) Encode(m *ir.Module) []float64 {
	return e.EncodeBatch([]*ir.Module{m})
}

// EncodeBatch encodes every module into one flat [len(mods) × 2*Dim]
// buffer (program i at out[i*2*Dim : (i+1)*2*Dim]), sharing one pooled
// scratch across the whole batch so n programs cost one scratch checkout
// and a single output allocation.
func (e *Encoder) EncodeBatch(mods []*ir.Module) []float64 {
	out := make([]float64, len(mods)*2*e.Dim)
	s := scratchPool.Get().(*scratch)
	for i, m := range mods {
		e.encodeInto(out[i*2*e.Dim:(i+1)*2*e.Dim], m, s)
	}
	s.release()
	return out
}

// encodeInto accumulates m's feature vector into the zeroed 2*Dim slice
// out using the caller's scratch.
func (e *Encoder) encodeInto(out []float64, m *ir.Module, s *scratch) {
	sym := out[:e.Dim]
	flow := out[e.Dim:]
	for _, f := range m.Funcs {
		if f.Decl {
			continue
		}
		s.gen++
		n := 0
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
		s.grow(n, e.Dim)
		symOf := func(i int32) []float64 {
			off := int(i) * e.Dim
			return s.vecs[off : off+e.Dim : off+e.Dim]
		}
		flowOf := func(i int32) []float64 {
			off := (n + int(i)) * e.Dim
			return s.vecs[off : off+e.Dim : off+e.Dim]
		}
		// Per-instruction symbolic vectors.
		i := int32(0)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				s.idx[in] = instrPos{gen: s.gen, i: i}
				v := symOf(i)
				for j := range v {
					v[j] = 0
				}
				e.addInstrTokens(v, in, s)
				tensor.VecAdd(sym, v)
				i++
			}
		}
		// Flow-aware: propagate reaching-definition vectors along use-def
		// chains in reverse postorder (back edges see the defs computed so
		// far, damped by flowBeta).
		for _, b := range s.rpo(f) {
			for _, in := range b.Instrs {
				pos := s.idx[in]
				v := flowOf(pos.i)
				copy(v, symOf(pos.i))
				for _, a := range in.Args {
					if dep, ok := a.(*ir.Instr); ok {
						if dp, ok := s.idx[dep]; ok && dp.gen == s.gen {
							if s.done[dp.i] == s.gen {
								tensor.VecAddScaled(v, flowBeta, flowOf(dp.i))
							} else {
								tensor.VecAddScaled(v, flowBeta, symOf(dp.i))
							}
						}
					}
				}
				s.done[pos.i] = s.gen
				tensor.VecAdd(flow, v)
			}
		}
	}
}

// Norm selects a feature normalisation strategy (Table IV: none, vector,
// index).
type Norm int

// Normalisation modes.
const (
	NormNone Norm = iota
	NormVector
	NormIndex
)

// String returns the Table IV spelling.
func (n Norm) String() string {
	switch n {
	case NormNone:
		return "none"
	case NormVector:
		return "vector"
	case NormIndex:
		return "index"
	}
	return "?"
}

// Normalizer applies one of the three modes. Index normalisation is fitted
// on the training features and then applied to validation features.
type Normalizer struct {
	Mode  Norm
	scale []float64 // per-coordinate, for NormIndex
}

// normalizerState is the exported gob mirror of Normalizer.
type normalizerState struct {
	Mode  Norm
	Scale []float64
}

// GobEncode implements gob.GobEncoder.
func (n *Normalizer) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(normalizerState{Mode: n.Mode, Scale: n.scale})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (n *Normalizer) GobDecode(b []byte) error {
	var st normalizerState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return err
	}
	n.Mode, n.scale = st.Mode, st.Scale
	return nil
}

// FitNormalizer prepares a normalizer from training features.
func FitNormalizer(mode Norm, train [][]float64) *Normalizer {
	n := &Normalizer{Mode: mode}
	if mode == NormIndex && len(train) > 0 {
		n.scale = make([]float64, len(train[0]))
		for _, v := range train {
			for i, x := range v {
				if a := math.Abs(x); a > n.scale[i] {
					n.scale[i] = a
				}
			}
		}
	}
	return n
}

// Apply normalises one feature vector (returning a fresh slice).
func (n *Normalizer) Apply(v []float64) []float64 {
	out := append([]float64(nil), v...)
	switch n.Mode {
	case NormNone:
	case NormVector:
		if m := tensor.VecMaxAbs(out); m > 0 {
			tensor.VecScale(out, 1/m)
		}
	case NormIndex:
		for i := range out {
			if i < len(n.scale) && n.scale[i] > 0 {
				out[i] /= n.scale[i]
			}
		}
	}
	return out
}

// ApplyAll normalises a batch.
func (n *Normalizer) ApplyAll(vs [][]float64) [][]float64 {
	out := make([][]float64, len(vs))
	for i, v := range vs {
		out[i] = n.Apply(v)
	}
	return out
}
