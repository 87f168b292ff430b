// Package graphs builds ProGraML-style program graphs from IR modules: a
// heterogeneous graph with three node kinds (instruction/control, variable,
// constant) and three edge kinds (control, data, call), unifying the
// control-flow, data-flow and call graphs exactly as the representation the
// paper adapts (§IV-B, Cummins et al. 2021).
package graphs

import (
	"fmt"
	"strconv"
	"sync"

	"mpidetect/internal/intern"
	"mpidetect/internal/ir"
)

// NodeKind distinguishes the three ProGraML node types.
type NodeKind int

// Node kinds.
const (
	KindInstr NodeKind = iota
	KindVar
	KindConst
	NumNodeKinds
)

// String names the kind.
func (k NodeKind) String() string {
	switch k {
	case KindInstr:
		return "instruction"
	case KindVar:
		return "variable"
	case KindConst:
		return "constant"
	}
	return "?"
}

// EdgeKind distinguishes the three ProGraML edge types.
type EdgeKind int

// Edge kinds.
const (
	EdgeControl EdgeKind = iota
	EdgeData
	EdgeCall
)

// String names the kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeControl:
		return "control"
	case EdgeData:
		return "data"
	case EdgeCall:
		return "call"
	}
	return "?"
}

// Node is one graph node. Token is the textual feature ProGraML attaches
// (opcode spelling for instructions — with the callee name for calls, which
// is what lets models see MPI operations — type text for variables, and a
// bucketed value for constants).
type Node struct {
	Kind  NodeKind
	Token string
}

// Edge connects Src to Dst with a relation kind.
type Edge struct {
	Kind     EdgeKind
	Src, Dst int
}

// Graph is a heterogeneous program graph.
type Graph struct {
	Nodes []Node
	Edges []Edge
	// TokID, when non-nil, holds the vocabulary id of each node, aligned
	// with Nodes. BuildResolved fills it (resolving tokens against a fixed
	// vocabulary without materialising the token strings); graphs from
	// Build leave it nil and consumers resolve Node.Token instead.
	TokID []int32
}

// NumByKind counts nodes of each kind.
func (g *Graph) NumByKind() [NumNodeKinds]int {
	var out [NumNodeKinds]int
	for _, n := range g.Nodes {
		out[n.Kind]++
	}
	return out
}

// The feature-token spellings below are the single definition of the
// program-entity vocabulary both models share: IR2Vec's (opcode, type,
// argument) entities and the ProGraML node tokens. The Append forms write
// to a reusable buffer without allocating, and training and serving spell
// through the same functions, so a vocabulary fitted on one path always
// resolves on the other.

// smallConstTokens pre-renders the "const:0" … "const:16" spellings so the
// common small-integer bucket costs neither a Sprintf nor an allocation.
var smallConstTokens = func() [17]string {
	var out [17]string
	for i := range out {
		out[i] = "const:" + strconv.Itoa(i)
	}
	return out
}()

// ConstToken buckets a constant for feature purposes: small integers keep
// their value (so datatype/tag/count literals are distinguishable), large
// and negative values collapse into buckets. This mirrors ProGraML's
// profile-independent value abstraction.
func ConstToken(c *ir.Const) string {
	switch {
	case c.IsUndef:
		return "const:undef"
	case c.IsNull:
		return "const:null"
	case c.IsFloat:
		return "const:float"
	case c.Int < 0:
		return "const:neg"
	case c.Int <= 16:
		return smallConstTokens[c.Int]
	case c.Int <= 256:
		return "const:medium"
	default:
		return "const:large"
	}
}

// AppendInstrToken appends the instruction token of in: its opcode, with
// the callee for calls (which is what lets models see MPI operations) and
// the predicate for comparisons.
func AppendInstrToken(dst []byte, in *ir.Instr) []byte {
	if in.Op == ir.OpCall {
		return append(append(dst, "call:"...), in.Callee...)
	}
	if in.Op == ir.OpICmp || in.Op == ir.OpFCmp {
		dst = append(dst, in.Op.String()...)
		dst = append(dst, ':')
		return append(dst, in.Cmp.String()...)
	}
	return append(dst, in.Op.String()...)
}

// AppendTypeToken appends the type entity token of t, the IR2Vec spelling
// of an instruction's result type.
func AppendTypeToken(dst []byte, t *ir.Type) []byte {
	return t.AppendString(append(dst, "type:"...))
}

// AppendVarToken appends the variable token of a value typed t.
func AppendVarToken(dst []byte, t *ir.Type) []byte {
	return t.AppendString(append(dst, "var:"...))
}

// AppendValueToken appends the token of an operand: a constant's bucket
// (ConstToken), otherwise the variable token of its type. A global is
// spelled from its element type, because Global.Type() allocates a fresh
// pointer type on every call.
func AppendValueToken(dst []byte, v ir.Value) []byte {
	switch x := v.(type) {
	case *ir.Const:
		return append(dst, ConstToken(x)...)
	case *ir.Global:
		return append(AppendVarToken(dst, x.Elem), '*')
	}
	return AppendVarToken(dst, v.Type())
}

// builder is the pooled working state of one graph construction: the
// node-identity maps, the token scratch buffer, (for Build) the memo of
// token strings, and the nodes, token ids and edges collected so far,
// which graph hands out once at their exact size. Node and edge order is
// fixed by the two-pass walk in build, identically for Build and
// BuildResolved.
type builder struct {
	vocab     *Vocab // nil: record Token strings; non-nil: record TokID
	nodes     []Node
	tokIDs    []int32
	edges     []Edge
	instrNode map[*ir.Instr]int
	varNode   map[ir.Value]int  // instruction results, params, globals
	constNode map[string]int    // constants deduplicated by bucket token
	funcEntry map[*ir.Func]int  // first instruction node of a function
	toks      map[string]string // Build's token strings, one per spelling
	buf       []byte
}

var builderPool = sync.Pool{New: func() any {
	return &builder{
		instrNode: map[*ir.Instr]int{},
		varNode:   map[ir.Value]int{},
		constNode: map[string]int{},
		funcEntry: map[*ir.Func]int{},
		toks:      map[string]string{},
	}
}}

// graph copies the collected nodes, token ids (BuildResolved only) and
// edges into a Graph, each at its exact size.
func (b *builder) graph() *Graph {
	g := &Graph{
		Nodes: make([]Node, len(b.nodes)),
		Edges: make([]Edge, len(b.edges)),
	}
	copy(g.Nodes, b.nodes)
	copy(g.Edges, b.edges)
	if b.vocab != nil {
		g.TokID = make([]int32, len(b.tokIDs))
		copy(g.TokID, b.tokIDs)
	}
	return g
}

// release drops every module reference and token string before the
// builder returns to the pool, so an idle pool never pins dead IR.
// clear() keeps the map buckets and the scratch slices' arrays.
func (b *builder) release() {
	b.vocab = nil
	clear(b.nodes)
	b.nodes, b.tokIDs, b.edges = b.nodes[:0], b.tokIDs[:0], b.edges[:0]
	clear(b.instrNode)
	clear(b.varNode)
	clear(b.constNode)
	clear(b.funcEntry)
	clear(b.toks)
	builderPool.Put(b)
}

// node appends a node of the given kind whose token is spelled in b.buf.
// Build records the token string, copied once per distinct spelling per
// graph; BuildResolved records its vocabulary id without a copy.
func (b *builder) node(kind NodeKind) int {
	n := Node{Kind: kind}
	if b.vocab == nil {
		tok, ok := b.toks[string(b.buf)]
		if !ok {
			tok = string(b.buf)
			b.toks[tok] = tok
		}
		n.Token = tok
	} else {
		b.tokIDs = append(b.tokIDs, int32(b.vocab.IDBytes(b.buf)))
	}
	b.nodes = append(b.nodes, n)
	return len(b.nodes) - 1
}

func (b *builder) addEdge(kind EdgeKind, src, dst int) {
	b.edges = append(b.edges, Edge{Kind: kind, Src: src, Dst: dst})
}

// varOf returns (creating on demand) the variable/constant node of a
// value used as an operand. Constants deduplicate by bucket token — never
// by vocabulary id, which would merge distinct buckets that all resolve
// to the out-of-vocabulary slot.
func (b *builder) varOf(v ir.Value) (int, bool) {
	switch x := v.(type) {
	case *ir.Const:
		tok := ConstToken(x)
		id, ok := b.constNode[tok]
		if !ok {
			b.buf = AppendValueToken(b.buf[:0], x)
			id = b.node(KindConst)
			b.constNode[tok] = id
		}
		return id, true
	case *ir.Param, *ir.Global, *ir.Instr:
		id, ok := b.varNode[v]
		if !ok {
			b.buf = AppendValueToken(b.buf[:0], v)
			id = b.node(KindVar)
			b.varNode[v] = id
		}
		return id, true
	}
	return 0, false
}

func (b *builder) build(m *ir.Module) {
	// Pass 1: instruction nodes.
	for _, f := range m.Funcs {
		if f.Decl {
			continue
		}
		first := true
		for _, bl := range f.Blocks {
			for _, in := range bl.Instrs {
				b.buf = AppendInstrToken(b.buf[:0], in)
				id := b.node(KindInstr)
				b.instrNode[in] = id
				if first {
					b.funcEntry[f] = id
					first = false
				}
			}
		}
	}

	// Pass 2: edges.
	for _, f := range m.Funcs {
		if f.Decl {
			continue
		}
		for _, bl := range f.Blocks {
			// Control edges: sequential within a block, terminator to the
			// first instruction of each successor block.
			for i := 0; i+1 < len(bl.Instrs); i++ {
				b.addEdge(EdgeControl, b.instrNode[bl.Instrs[i]], b.instrNode[bl.Instrs[i+1]])
			}
			if t := bl.Term(); t != nil {
				for _, s := range t.Blocks {
					if len(s.Instrs) > 0 {
						b.addEdge(EdgeControl, b.instrNode[t], b.instrNode[s.Instrs[0]])
					}
				}
			}
			for _, in := range bl.Instrs {
				// Data edges: operand -> instruction; instruction -> its
				// result variable.
				for _, a := range in.Args {
					if src, ok := b.varOf(a); ok {
						b.addEdge(EdgeData, src, b.instrNode[in])
					}
				}
				if in.Name != "" && in.Typ != nil && in.Typ.Kind != ir.KVoid {
					if dst, ok := b.varOf(in); ok {
						b.addEdge(EdgeData, b.instrNode[in], dst)
					}
				}
				// Call edges: call site -> callee entry (defined functions).
				if in.Op == ir.OpCall {
					if callee := m.FuncByName(in.Callee); callee != nil && !callee.Decl {
						if entry, ok := b.funcEntry[callee]; ok {
							b.addEdge(EdgeCall, b.instrNode[in], entry)
						}
					}
				}
			}
		}
	}
}

// Build constructs the program graph of a module, with Node.Token filled
// for vocabulary construction (training) and printing.
func Build(m *ir.Module) *Graph {
	b := builderPool.Get().(*builder)
	b.vocab = nil
	b.build(m)
	g := b.graph()
	b.release()
	return g
}

// BuildResolved constructs the program graph of a module with every node
// token resolved against v into Graph.TokID, skipping the token-string
// round trip entirely: each spelling is assembled in a reusable byte
// buffer and looked up with the intern table's zero-allocation byte
// resolver. Node order, edge order and the resulting vocabulary ids are
// identical to Build followed by per-node Vocab.ID — only Node.Token is
// left empty, so resolved graphs are for inference, not for BuildVocab.
func BuildResolved(m *ir.Module, v *Vocab) *Graph {
	b := builderPool.Get().(*builder)
	b.vocab = v
	b.build(m)
	g := b.graph()
	b.release()
	return g
}

// Vocab maps node tokens to dense ids, shared across a corpus so the GNN
// embedding table is consistent between training and validation. It is
// keyed on an intern table: token i of the table gets vocabulary id i+1,
// id 0 being the out-of-vocabulary slot, so the embedding matrix is a flat
// (Len+1)×dim array addressed without string hashing after the build
// phase.
type Vocab struct {
	Tab *intern.Table
	OOV int // the id reserved for unseen tokens (always 0)
}

// NewVocab returns an empty vocabulary ready for interning.
func NewVocab() *Vocab { return &Vocab{Tab: intern.New(), OOV: 0} }

// BuildVocab scans graphs and assigns token ids (id 0 is out-of-vocabulary).
func BuildVocab(gs []*Graph) *Vocab {
	v := NewVocab()
	for _, g := range gs {
		for _, n := range g.Nodes {
			v.Tab.Intern(n.Token)
		}
	}
	return v
}

// Size returns the vocabulary size including the OOV slot.
func (v *Vocab) Size() int { return v.Tab.Len() + 1 }

// ID resolves a token (OOV for unknown).
func (v *Vocab) ID(tok string) int {
	if id, ok := v.Tab.Resolve(tok); ok {
		return int(id) + 1
	}
	return v.OOV
}

// IDBytes resolves a token assembled in a byte buffer without allocating
// (OOV for unknown).
func (v *Vocab) IDBytes(tok []byte) int {
	if id, ok := v.Tab.ResolveBytes(tok); ok {
		return int(id) + 1
	}
	return v.OOV
}

// TokenIDs exports the vocabulary as the legacy token→id map — the shape
// persisted in gob model artifacts since ArtifactVersion 1.
func (v *Vocab) TokenIDs() map[string]int {
	out := make(map[string]int, v.Tab.Len())
	for i, tok := range v.Tab.Tokens() {
		out[tok] = i + 1
	}
	return out
}

// VocabFromTokenIDs rebuilds a vocabulary from the legacy map shape,
// preserving the persisted ids (token with map id i+1 gets table id i). It
// rejects maps whose ids are not a dense 1..n assignment, since those
// cannot index a flat embedding table.
func VocabFromTokenIDs(ids map[string]int) (*Vocab, error) {
	toks := make([]string, len(ids))
	taken := make([]bool, len(ids))
	for tok, id := range ids {
		if id < 1 || id > len(ids) {
			return nil, fmt.Errorf("graphs: vocab id %d for token %q outside dense range 1..%d", id, tok, len(ids))
		}
		if taken[id-1] {
			return nil, fmt.Errorf("graphs: vocab id %d assigned to both %q and %q", id, toks[id-1], tok)
		}
		taken[id-1] = true
		toks[id-1] = tok
	}
	v := NewVocab()
	for _, tok := range toks {
		v.Tab.Intern(tok)
	}
	if v.Tab.Len() != len(ids) {
		return nil, fmt.Errorf("graphs: vocab map has duplicate tokens (%d ids, %d distinct tokens)", len(ids), v.Tab.Len())
	}
	return v, nil
}
