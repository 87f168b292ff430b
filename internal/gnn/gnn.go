// Package gnn implements the paper's GNN-based MPI error detection pipeline
// (§IV-B): ProGraML heterogeneous program graphs fed through three GATv2
// convolution layers (128/64/32 in the paper), an adaptive max-pooling
// aggregation into a graph-level vector, and two fully connected layers
// whose output dimension is the number of classes. Training uses
// cross-entropy loss and Adam with learning rate 4e-4 for 10 epochs.
package gnn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"mpidetect/internal/autodiff"
	"mpidetect/internal/graphs"
	"mpidetect/internal/nn"
	"mpidetect/internal/par"
	"mpidetect/internal/tensor"
)

// Config holds the hyper-parameters. Paper values: EmbedDim 32 (input
// embedding), Hidden {128, 64, 32}, LR 4e-4, Epochs 10. The default used by
// the experiment harness is a proportionally narrower stack so the full
// 10-fold × 5-scenario evaluation finishes in CPU-only wall-clock; pass
// Paper() for the faithful sizes.
type Config struct {
	EmbedDim  int
	Hidden    []int
	LR        float64
	Epochs    int
	BatchSize int
	Seed      int64
	// Workers is how many gradient buffers Train splits each batch
	// across. It groups the gradient sum, so the trained weights' bits
	// depend on it; it is part of the configuration, never the host's
	// core count, and par.Map spreads the buffers over whatever cores
	// exist.
	Workers int
}

// defaultWorkers is the gradient grouping Default and Paper fix, so the
// weights they train are the same on every host. Two is the grouping of
// the 2-CPU hosts the repository's models are trained and benchmarked
// on, so those models keep their bits.
const defaultWorkers = 2

// Default returns the throughput-oriented configuration.
func Default() Config {
	return Config{EmbedDim: 16, Hidden: []int{32, 24, 16}, LR: 2e-3,
		Epochs: 4, BatchSize: 32, Seed: 1, Workers: defaultWorkers}
}

// Paper returns the paper-faithful configuration (§IV-B).
func Paper() Config {
	return Config{EmbedDim: 32, Hidden: []int{128, 64, 32}, LR: 4e-4,
		Epochs: 10, BatchSize: 32, Seed: 1, Workers: defaultWorkers}
}

// Sample is one labelled graph.
type Sample struct {
	G     *graphs.Graph
	Label int
}

// The five edge relations of the heterogeneous ProGraML schema.
type relation struct {
	edge     graphs.EdgeKind
	src, dst graphs.NodeKind
}

var relations = []relation{
	{graphs.EdgeControl, graphs.KindInstr, graphs.KindInstr},
	{graphs.EdgeData, graphs.KindVar, graphs.KindInstr},
	{graphs.EdgeData, graphs.KindConst, graphs.KindInstr},
	{graphs.EdgeData, graphs.KindInstr, graphs.KindVar},
	{graphs.EdgeCall, graphs.KindInstr, graphs.KindInstr},
}

// maxLayerTerms bounds the fixed term buffer in forward (self transform
// plus one message per relation); the init check keeps a future schema
// extension from silently overflowing it.
const maxLayerTerms = 8

func init() {
	if 1+len(relations) > maxLayerTerms {
		panic("gnn: relation schema exceeds maxLayerTerms; grow the forward term buffer")
	}
}

// prepared is graphs preprocessed for the model: per-kind token ids and
// per-relation edge lists in kind-local row indices.
type prepared struct {
	tokens [graphs.NumNodeKinds][]int
	edges  [][2][]int // per relation: [srcIdx, dstIdx]
}

// tokenID resolves node i of g to its vocabulary id: the pre-resolved
// TokID when the graph carries one (graphs.BuildResolved), the token
// string against the model vocabulary otherwise.
func (m *Model) tokenID(g *graphs.Graph, i int) int {
	if g.TokID != nil {
		return int(g.TokID[i])
	}
	return m.Vocab.ID(g.Nodes[i].Token)
}

// add appends g to p: its nodes become the next rows of their kinds and
// its edges index those rows. local is scratch of len(g.Nodes).
func (m *Model) add(p *prepared, g *graphs.Graph, local []int) {
	if p.edges == nil {
		p.edges = make([][2][]int, len(relations))
	}
	for i, n := range g.Nodes {
		local[i] = len(p.tokens[n.Kind])
		p.tokens[n.Kind] = append(p.tokens[n.Kind], m.tokenID(g, i))
	}
	for _, e := range g.Edges {
		sk := g.Nodes[e.Src].Kind
		dk := g.Nodes[e.Dst].Kind
		for ri, rel := range relations {
			if rel.edge == e.Kind && rel.src == sk && rel.dst == dk {
				p.edges[ri][0] = append(p.edges[ri][0], local[e.Src])
				p.edges[ri][1] = append(p.edges[ri][1], local[e.Dst])
				break
			}
		}
	}
}

func (m *Model) prepare(g *graphs.Graph) *prepared {
	p := &prepared{}
	m.add(p, g, make([]int, len(g.Nodes)))
	return p
}

// preparedBatch is several graphs fused into one block-diagonal prepared
// form: per-kind token lists are the per-graph lists concatenated (seg
// maps each row back to its graph), and per-relation edge lists carry
// kind-local row indices into the concatenated lists. Because the graphs
// share no nodes, every segment operation downstream sees exactly the
// rows and edge order of the corresponding single-graph pass. A pooled
// preparedBatch is reused across calls: every slice keeps its capacity.
type preparedBatch struct {
	prepared
	n     int
	seg   [graphs.NumNodeKinds][]int
	local []int // scratch for add
	plan  compactPlan
}

// rowSel selects, for one relation, the distinct rows its edges read on
// each endpoint side (0 = source, 1 = destination), in first-occurrence
// order, and maps every edge to its row's position in that list.
type rowSel struct {
	keys [2][]int
	at   [2][]int
}

// compactPlan tells the inference pass which rows each matmul must
// produce. Layer 1 reads the embedding table, so its rows are keyed by
// token id: a batch repeats few distinct (kind, token) pairs. Layers 2-3
// read the previous layer's rows, keyed by kind-local row index: a
// relation's edges touch only part of its endpoint kinds. Built once per
// batch and shared by all layers; every slice lives in ints.
type compactPlan struct {
	kindTok [graphs.NumNodeKinds][]int // distinct token ids per kind
	kindAt  [graphs.NumNodeKinds][]int // row -> position in kindTok
	tok     []rowSel                   // per relation, keyed by token id
	row     []rowSel                   // per relation, keyed by row index
	ints    []int                      // backing store of every slice above
	free    []int                      // unused tail of ints
	mark    []int                      // key -> position+1; zero between uses
}

// prepareBatch refills p with the fused form of gs and builds the batch's
// compaction plan.
func (m *Model) prepareBatch(p *preparedBatch, gs []*graphs.Graph) {
	p.n = len(gs)
	for k := range p.tokens {
		p.tokens[k] = p.tokens[k][:0]
		p.seg[k] = p.seg[k][:0]
	}
	for ri := range p.edges {
		p.edges[ri][0] = p.edges[ri][0][:0]
		p.edges[ri][1] = p.edges[ri][1][:0]
	}
	for gi, g := range gs {
		if cap(p.local) < len(g.Nodes) {
			p.local = make([]int, len(g.Nodes))
		}
		m.add(&p.prepared, g, p.local[:len(g.Nodes)])
		for k := range p.seg {
			for len(p.seg[k]) < len(p.tokens[k]) {
				p.seg[k] = append(p.seg[k], gi)
			}
		}
	}
	p.plan.build(p, m.embed.Table.Val.R)
}

// build fills the plan for the batch; vocab bounds the token ids.
func (pl *compactPlan) build(p *preparedBatch, vocab int) {
	need, keyRange := 0, vocab
	for k := range p.tokens {
		n := len(p.tokens[k])
		need += 2 * n
		keyRange = max(keyRange, n)
	}
	for ri, rel := range relations {
		// Both selections (tok, row) hold an edge remap and at most
		// min(edges, rows) distinct keys per endpoint side.
		e := len(p.edges[ri][0])
		need += 2 * (2*e + min(e, len(p.tokens[rel.src])) + min(e, len(p.tokens[rel.dst])))
	}
	if cap(pl.ints) < need {
		pl.ints = make([]int, need)
	}
	if len(pl.mark) < keyRange {
		pl.mark = make([]int, keyRange)
	}
	if pl.tok == nil {
		pl.tok = make([]rowSel, len(relations))
		pl.row = make([]rowSel, len(relations))
	}
	pl.free = pl.ints[:need]
	for k := range p.tokens {
		ids := p.tokens[k]
		pl.kindAt[k] = pl.take(len(ids))
		pl.kindTok[k] = pl.distinct(ids, nil, pl.take(len(ids))[:0], pl.kindAt[k])
	}
	for ri, rel := range relations {
		for side, kind := range [2]graphs.NodeKind{rel.src, rel.dst} {
			idx := p.edges[ri][side]
			uniq := min(len(idx), len(p.tokens[kind]))
			ts, rs := &pl.tok[ri], &pl.row[ri]
			ts.at[side] = pl.take(len(idx))
			ts.keys[side] = pl.distinct(idx, p.tokens[kind], pl.take(uniq)[:0], ts.at[side])
			rs.at[side] = pl.take(len(idx))
			rs.keys[side] = pl.distinct(idx, nil, pl.take(uniq)[:0], rs.at[side])
		}
	}
}

// take carves the next n ints off the plan's backing store.
func (pl *compactPlan) take(n int) []int {
	s := pl.free[:n:n]
	pl.free = pl.free[n:]
	return s
}

// distinct appends to uniq the distinct keys in first-occurrence order
// and writes each key's position among them to at. Key i is keys[i], or
// via[keys[i]] when via is non-nil. The mark array is zero on entry and
// on return.
func (pl *compactPlan) distinct(keys, via, uniq, at []int) []int {
	for i, k := range keys {
		if via != nil {
			k = via[k]
		}
		j := pl.mark[k]
		if j == 0 {
			uniq = append(uniq, k)
			j = len(uniq)
			pl.mark[k] = j
		}
		at[i] = j - 1
	}
	for _, k := range uniq {
		pl.mark[k] = 0
	}
	return uniq
}

type heteroLayer struct {
	convs []*nn.GATv2                     // one per relation
	self  [graphs.NumNodeKinds]*nn.Linear // self transform per node kind
}

// Model is the trained GNN classifier.
type Model struct {
	Cfg     Config
	Vocab   *graphs.Vocab
	Classes int

	ps      *nn.ParamSet
	embed   *nn.Embedding
	layers  []*heteroLayer
	fc1     *nn.Linear
	fc2     *nn.Linear
	scratch *sync.Pool // *inferScratch, reused across predictions
}

// NewModel builds an untrained model over the vocabulary.
func NewModel(cfg Config, vocab *graphs.Vocab, classes int) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Cfg: cfg, Vocab: vocab, Classes: classes, ps: &nn.ParamSet{},
		scratch: &sync.Pool{}}
	m.embed = nn.NewEmbedding(m.ps, rng, "embed", vocab.Size(), cfg.EmbedDim)
	in := cfg.EmbedDim
	for li, h := range cfg.Hidden {
		layer := &heteroLayer{}
		for ri := range relations {
			layer.convs = append(layer.convs,
				nn.NewGATv2(m.ps, rng, lname("gat", li, ri), in, h))
		}
		for k := graphs.NodeKind(0); k < graphs.NumNodeKinds; k++ {
			layer.self[k] = nn.NewLinear(m.ps, rng, lname("self", li, int(k)), in, h)
		}
		m.layers = append(m.layers, layer)
		in = h
	}
	last := cfg.Hidden[len(cfg.Hidden)-1]
	m.fc1 = nn.NewLinear(m.ps, rng, "fc1", last*int(graphs.NumNodeKinds), last)
	m.fc2 = nn.NewLinear(m.ps, rng, "fc2", last, classes)
	return m
}

func lname(base string, a, b int) string {
	return base + string(rune('0'+a)) + "." + string(rune('0'+b))
}

var errGobShape = errors.New("gnn: corrupt model encoding: invalid layer shape")

// modelState is the exported gob mirror of Model: the hyper-parameters and
// vocabulary needed to rebuild the layer structure via NewModel, plus the
// trained parameter values by name.
type modelState struct {
	Cfg      Config
	VocabIDs map[string]int
	VocabOOV int
	Classes  int
	Params   map[string][]float64
}

// GobEncode implements gob.GobEncoder.
func (m *Model) GobEncode() ([]byte, error) {
	if m.ps == nil || m.Vocab == nil {
		return nil, errors.New("gnn: cannot encode an uninitialised model")
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(modelState{
		Cfg: m.Cfg, VocabIDs: m.Vocab.TokenIDs(), VocabOOV: m.Vocab.OOV,
		Classes: m.Classes, Params: m.ps.State()})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder: it rebuilds an untrained model with
// the encoded shape, then restores the trained weights into it. The
// encoded configuration, Workers included, is kept as it was trained, so
// retraining a decoded model gives the same weights on every host.
func (m *Model) GobDecode(b []byte) error {
	var st modelState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return err
	}
	if len(st.Cfg.Hidden) == 0 || st.Cfg.EmbedDim <= 0 || st.Classes <= 0 {
		return errGobShape
	}
	for _, h := range st.Cfg.Hidden {
		if h <= 0 {
			return errGobShape
		}
	}
	vocab, err := graphs.VocabFromTokenIDs(st.VocabIDs)
	if err != nil {
		return fmt.Errorf("gnn: corrupt model encoding: %w", err)
	}
	vocab.OOV = st.VocabOOV
	fresh := NewModel(st.Cfg, vocab, st.Classes)
	if err := fresh.ps.LoadState(st.Params); err != nil {
		return err
	}
	*m = *fresh
	return nil
}

// forward computes the class logits of one prepared graph, projecting
// every row. It is the training pass; inference runs forwardBatch.
func (m *Model) forward(c *nn.Ctx, p *prepared) *autodiff.Node {
	var h [graphs.NumNodeKinds]*autodiff.Node
	for k := graphs.NodeKind(0); k < graphs.NumNodeKinds; k++ {
		ids := p.tokens[k]
		if len(ids) == 0 {
			h[k] = nil
			continue
		}
		h[k] = m.embed.Forward(c, ids)
	}
	for _, layer := range m.layers {
		var next [graphs.NumNodeKinds]*autodiff.Node
		for k := graphs.NodeKind(0); k < graphs.NumNodeKinds; k++ {
			if h[k] == nil {
				continue
			}
			// Self transform plus one message per active relation, summed
			// and activated in a single fused pass (same left-to-right
			// accumulation order as the former Add chain).
			var terms [maxLayerTerms]*autodiff.Node
			n := 0
			terms[n] = layer.self[k].Forward(c, h[k])
			n++
			for ri, rel := range relations {
				if rel.dst != k || h[rel.src] == nil {
					continue
				}
				if len(p.edges[ri][0]) == 0 {
					continue
				}
				terms[n] = layer.convs[ri].Forward(c, h[rel.src], h[k],
					p.edges[ri][0], p.edges[ri][1], len(p.tokens[k]))
				n++
			}
			next[k] = c.T.ELUAddN(terms[:n]...)
		}
		h = next
	}
	// Adaptive max pooling per kind, concatenated into the graph vector.
	last := m.Cfg.Hidden[len(m.Cfg.Hidden)-1]
	var pooled *autodiff.Node
	for k := graphs.NodeKind(0); k < graphs.NumNodeKinds; k++ {
		var pk *autodiff.Node
		if h[k] == nil {
			pk = c.T.Input(tensor.New(1, last))
		} else {
			pk = c.T.MaxRows(h[k])
		}
		if pooled == nil {
			pooled = pk
		} else {
			pooled = c.T.Concat(pooled, pk)
		}
	}
	hidden := c.T.ReLU(m.fc1.Forward(c, pooled))
	return m.fc2.Forward(c, hidden)
}

// forwardBatch computes the [n × classes] logits of a fused batch. The
// arithmetic per graph is bit-identical to forward: every matrix op is
// row-independent, segment ops visit rows/edges in the same per-graph
// order, and a relation that is empty for one graph but present elsewhere
// in the batch contributes exactly-zero message rows to that graph — an
// addition the unbatched pass skips, with identical results (+0 added to
// any accumulator leaves it unchanged).
//
// It also multiplies only the rows the batch reads (see compactPlan):
// layer 1 transforms each distinct token once and gathers the results
// back per node, and layers 2-3 project only the rows some edge of the
// relation reads. A matmul output row depends on its own input row
// alone (k ascends from +0 with the same zero skip), so projecting a
// chosen row equals projecting every row and picking it, bit for bit.
// The projections read their input rows through the plan's index lists
// (MatMulRows), and each relation's attention reads the projected rows
// through the edges' row indices (EdgeAttend), so no edge-by-width
// matrix is ever copied out: the GATv2 ops that training composes from
// Gather, AddLeakyReLU, MatMul, SegmentSoftmax and SegmentSumMulCol run
// here as those two inference-only ops, with the same bits.
func (m *Model) forwardBatch(c *nn.Ctx, p *preparedBatch) *autodiff.Node {
	pl := &p.plan
	table := c.P(m.embed.Table)
	var h [graphs.NumNodeKinds]*autodiff.Node
	for li, layer := range m.layers {
		// Layer 1 reads embedding rows by token id, later layers read the
		// previous layer's rows by row index.
		in, sel := h, pl.row
		if li == 0 {
			for k := range in {
				in[k] = table
			}
			sel = pl.tok
		}
		var next [graphs.NumNodeKinds]*autodiff.Node
		for k := graphs.NodeKind(0); k < graphs.NumNodeKinds; k++ {
			if len(p.tokens[k]) == 0 {
				continue
			}
			var terms [maxLayerTerms]*autodiff.Node
			n := 0
			self := layer.self[k]
			if li == 0 {
				x := c.T.MatMulRowsAddRow(table, pl.kindTok[k], c.P(self.W), c.P(self.B))
				terms[n] = c.T.Gather(x, pl.kindAt[k])
			} else {
				terms[n] = self.Forward(c, h[k])
			}
			n++
			for ri, rel := range relations {
				if rel.dst != k || len(p.edges[ri][0]) == 0 {
					continue
				}
				conv, rs := layer.convs[ri], &sel[ri]
				hs := c.T.MatMulRows(in[rel.src], rs.keys[0], c.P(conv.WSrc))
				hd := c.T.MatMulRows(in[k], rs.keys[1], c.P(conv.WDst))
				terms[n] = c.T.EdgeAttend(hs, hd, c.P(conv.Att), rs.at[0], rs.at[1],
					p.edges[ri][1], len(p.tokens[k]), nn.AttentionSlope)
				n++
			}
			next[k] = c.T.ELUAddN(terms[:n]...)
		}
		h = next
	}
	// Adaptive max pooling per kind and per graph, concatenated into the
	// [n × 3*last] graph-vector matrix.
	last := m.Cfg.Hidden[len(m.Cfg.Hidden)-1]
	var pooled *autodiff.Node
	for k := graphs.NodeKind(0); k < graphs.NumNodeKinds; k++ {
		var pk *autodiff.Node
		if h[k] == nil {
			pk = c.T.Input(tensor.New(p.n, last))
		} else {
			pk = c.T.SegmentMaxRows(h[k], p.seg[k], p.n)
		}
		if pooled == nil {
			pooled = pk
		} else {
			pooled = c.T.Concat(pooled, pk)
		}
	}
	hidden := c.T.ReLU(m.fc1.Forward(c, pooled))
	return m.fc2.Forward(c, hidden)
}

// Train fits the model on the samples. Each worker owns one reusable
// context: the tape arena is recycled per sample, so the steady-state
// training loop performs almost no heap allocation.
func (m *Model) Train(samples []Sample) {
	rng := rand.New(rand.NewSource(m.Cfg.Seed + 17))
	prep := make([]*prepared, len(samples))
	for i, s := range samples {
		prep[i] = m.prepare(s.G)
	}
	adam := nn.NewAdam(m.Cfg.LR)
	workers := m.Cfg.Workers
	if workers < 1 {
		workers = 1
	}
	bufs := make([]*nn.GradBuffer, workers)
	ctxs := make([]*nn.Ctx, workers)
	for i := range bufs {
		bufs[i] = m.ps.NewGradBuffer()
		ctxs[i] = nn.NewCtx(m.ps, bufs[i])
	}
	trainOne := func(w, bi int, batch []int) {
		c := ctxs[w]
		c.Reset(bufs[w])
		logits := m.forward(c, prep[batch[bi]])
		loss := c.T.CrossEntropyLogits(logits, samples[batch[bi]].Label)
		c.Backward(loss)
	}
	order := make([]int, len(prep))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < m.Cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += m.Cfg.BatchSize {
			end := start + m.Cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			// Worker w takes samples bi ≡ w (mod workers) into its own
			// buffer; the buffers are reduced in worker order below, so
			// the sum does not depend on which goroutine ran which worker.
			par.Map(workers, func(w int) {
				for bi := w; bi < len(batch); bi += workers {
					trainOne(w, bi, batch)
				}
			})
			for _, gb := range bufs {
				m.ps.ReduceInto(gb)
				gb.Zero()
			}
			scale := 1.0 / float64(len(batch))
			for _, prm := range m.ps.List {
				tensor.ScaleInPlace(prm.Grad, scale)
			}
			adam.Step(m.ps)
		}
	}
}

// inferScratch is one pooled inference workspace: a forward-only context
// and the batch preparation buffers. Concurrent calls each borrow their
// own; the pool recycles tape arenas and plan storage between calls.
type inferScratch struct {
	c *nn.Ctx
	p preparedBatch
}

func (m *Model) getScratch() *inferScratch {
	if s, ok := m.scratch.Get().(*inferScratch); ok {
		s.c.Reset(nil)
		return s
	}
	c := nn.NewCtx(m.ps, nil)
	c.T.SetInference(true)
	return &inferScratch{c: c}
}

// logitsBatchOf runs one fused forward pass over the graphs, copying the
// [len(gs) × classes] logits out of the tape arena.
func (m *Model) logitsBatchOf(gs []*graphs.Graph) []float64 {
	s := m.getScratch()
	m.prepareBatch(&s.p, gs)
	logits := m.forwardBatch(s.c, &s.p)
	out := append([]float64(nil), logits.Val.Data...)
	m.scratch.Put(s)
	return out
}

// Predict returns the class with the highest logit for the graph: a batch
// of one through the same pass as PredictBatch.
func (m *Model) Predict(g *graphs.Graph) int {
	return m.PredictBatch([]*graphs.Graph{g})[0]
}

// PredictBatch classifies the graphs in one forward pass, returning the
// argmax class per graph. Per-graph results do not depend on the batch.
func (m *Model) PredictBatch(gs []*graphs.Graph) []int {
	if len(gs) == 0 {
		return nil
	}
	logits := m.logitsBatchOf(gs)
	out := make([]int, len(gs))
	for i := range gs {
		row := logits[i*m.Classes : (i+1)*m.Classes]
		best, bi := row[0], 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		out[i] = bi
	}
	return out
}

// PredictProbsBatch returns the softmax class distribution per graph from
// one fused forward pass, bit-identical to a batch of one per graph and
// to the dense training forward pass.
func (m *Model) PredictProbsBatch(gs []*graphs.Graph) [][]float64 {
	if len(gs) == 0 {
		return nil
	}
	logits := m.logitsBatchOf(gs)
	out := make([][]float64, len(gs))
	for i := range gs {
		out[i] = autodiff.Softmax(logits[i*m.Classes : (i+1)*m.Classes])
	}
	return out
}
