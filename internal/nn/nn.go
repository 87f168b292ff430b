// Package nn provides the neural-network layers used by the GNN pipeline:
// parameter management with Adam, dense layers, embeddings, and the GATv2
// graph-attention convolution of Brody et al. that the paper uses (§IV-B).
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"mpidetect/internal/autodiff"
	"mpidetect/internal/tensor"
)

// Param is a trainable tensor with its gradient accumulator and Adam state.
type Param struct {
	Name string
	Val  *tensor.Mat
	Grad *tensor.Mat
	m, v *tensor.Mat
	idx  int // position in the owning ParamSet's list
}

// ParamSet owns all parameters of a model.
type ParamSet struct {
	List []*Param
}

// New registers a parameter initialised to val.
func (ps *ParamSet) New(name string, val *tensor.Mat) *Param {
	p := &Param{Name: name, Val: val,
		Grad: tensor.New(val.R, val.C),
		m:    tensor.New(val.R, val.C),
		v:    tensor.New(val.R, val.C),
		idx:  len(ps.List)}
	ps.List = append(ps.List, p)
	return p
}

// ZeroGrads clears every gradient accumulator.
func (ps *ParamSet) ZeroGrads() {
	for _, p := range ps.List {
		p.Grad.Zero()
	}
}

// State snapshots every parameter's values by name, for model
// serialization. Adam moments and gradients are not captured: a restored
// model is ready for inference (or fresh fine-tuning), not for resuming an
// optimiser run mid-flight.
func (ps *ParamSet) State() map[string][]float64 {
	out := make(map[string][]float64, len(ps.List))
	for _, p := range ps.List {
		out[p.Name] = append([]float64(nil), p.Val.Data...)
	}
	return out
}

// LoadState restores parameter values captured by State into an
// identically-structured ParamSet, matching by name and verifying sizes.
func (ps *ParamSet) LoadState(state map[string][]float64) error {
	if len(state) != len(ps.List) {
		return fmt.Errorf("nn: state has %d params, model has %d", len(state), len(ps.List))
	}
	for _, p := range ps.List {
		vals, ok := state[p.Name]
		if !ok {
			return fmt.Errorf("nn: state missing param %q", p.Name)
		}
		if len(vals) != len(p.Val.Data) {
			return fmt.Errorf("nn: param %q has %d values, model expects %d",
				p.Name, len(vals), len(p.Val.Data))
		}
		copy(p.Val.Data, vals)
	}
	return nil
}

// GradBuffer is a per-worker gradient accumulation area aligned with the
// parameter list, enabling data-parallel training without locking.
type GradBuffer struct {
	mats []*tensor.Mat
}

// NewGradBuffer allocates a zeroed buffer matching the parameter shapes.
func (ps *ParamSet) NewGradBuffer() *GradBuffer {
	gb := &GradBuffer{mats: make([]*tensor.Mat, len(ps.List))}
	for i, p := range ps.List {
		gb.mats[i] = tensor.New(p.Val.R, p.Val.C)
	}
	return gb
}

// Zero clears the buffer.
func (gb *GradBuffer) Zero() {
	for _, m := range gb.mats {
		m.Zero()
	}
}

// ReduceInto adds the buffer into the parameters' main gradients.
func (ps *ParamSet) ReduceInto(gb *GradBuffer) {
	for i, p := range ps.List {
		tensor.AddInPlace(p.Grad, gb.mats[i])
	}
}

// Ctx couples a tape with the parameter bindings of one forward pass.
// Contexts are reusable: Reset recycles the tape arena and bindings so a
// training or serving loop can run every pass allocation-free.
type Ctx struct {
	T       *autodiff.Tape
	binds   []*autodiff.Node // dense, indexed by Param.idx; nil = unbound
	touched []int32          // bound param indices, in first-use order
	gb      *GradBuffer
	ps      *ParamSet
}

// NewCtx starts a fresh forward pass. If gb is non-nil, gradients flush
// into it; otherwise they flush into the parameters directly.
func NewCtx(ps *ParamSet, gb *GradBuffer) *Ctx {
	return &Ctx{T: autodiff.NewTape(), ps: ps, gb: gb,
		binds: make([]*autodiff.Node, len(ps.List))}
}

// Reset recycles the context for another pass over the same parameters,
// invalidating every node of the previous pass. If gb is non-nil it
// becomes the new gradient sink.
func (c *Ctx) Reset(gb *GradBuffer) {
	c.T.Reset()
	for _, idx := range c.touched {
		c.binds[idx] = nil
	}
	c.touched = c.touched[:0]
	c.gb = gb
	if len(c.binds) < len(c.ps.List) {
		c.binds = make([]*autodiff.Node, len(c.ps.List))
	}
}

// P wraps a parameter as a tape node (cached per context, O(1) by the
// parameter's registration index).
func (c *Ctx) P(p *Param) *autodiff.Node {
	if n := c.binds[p.idx]; n != nil {
		return n
	}
	n := c.T.Input(p.Val)
	c.binds[p.idx] = n
	c.touched = append(c.touched, int32(p.idx))
	return n
}

// Backward runs backprop from loss and flushes parameter gradients.
func (c *Ctx) Backward(loss *autodiff.Node) {
	c.T.Backward(loss)
	for _, idx := range c.touched {
		node := c.binds[idx]
		if c.gb != nil {
			tensor.AddInPlace(c.gb.mats[idx], node.Grad)
		} else {
			tensor.AddInPlace(c.ps.List[idx].Grad, node.Grad)
		}
	}
}

// Adam is the Adam optimiser (the paper trains with lr = 4e-4).
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64
	t     int
}

// NewAdam returns an Adam optimiser with standard betas.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one update using the accumulated gradients, then zeroes them.
func (a *Adam) Step(ps *ParamSet) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range ps.List {
		for i, g := range p.Grad.Data {
			p.m.Data[i] = a.Beta1*p.m.Data[i] + (1-a.Beta1)*g
			p.v.Data[i] = a.Beta2*p.v.Data[i] + (1-a.Beta2)*g*g
			mh := p.m.Data[i] / bc1
			vh := p.v.Data[i] / bc2
			p.Val.Data[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
	ps.ZeroGrads()
}

// Linear is a dense layer y = xW + b.
type Linear struct {
	W, B *Param
}

// NewLinear creates a Glorot-initialised dense layer.
func NewLinear(ps *ParamSet, rng *rand.Rand, name string, in, out int) *Linear {
	return &Linear{
		W: ps.New(name+".W", tensor.XavierInit(rng, in, out)),
		B: ps.New(name+".B", tensor.New(1, out)),
	}
}

// Forward applies the layer (fused matmul + bias broadcast).
func (l *Linear) Forward(c *Ctx, x *autodiff.Node) *autodiff.Node {
	return c.T.MatMulAddRow(x, c.P(l.W), c.P(l.B))
}

// Embedding maps token ids to learned rows.
type Embedding struct {
	Table *Param
}

// NewEmbedding creates a vocab×dim embedding table.
func NewEmbedding(ps *ParamSet, rng *rand.Rand, name string, vocab, dim int) *Embedding {
	return &Embedding{Table: ps.New(name, tensor.Randn(rng, vocab, dim, 0.1))}
}

// Forward gathers the rows of the given token ids.
func (e *Embedding) Forward(c *Ctx, ids []int) *autodiff.Node {
	return c.T.Gather(c.P(e.Table), ids)
}

// GATv2 is one graph-attention convolution for a single edge relation
// (Brody, Alon, Yahav: "How Attentive Are Graph Attention Networks?").
// Attention scores are aᵀ·LeakyReLU(W_s h_src + W_d h_dst), normalised per
// destination with a segment softmax.
//
// Forward is the differentiable composition training runs. Inference
// (gnn's batched pass) reads the same parameters through the tape's
// inference-only ops instead: MatMulRows projects only the rows some
// edge reads, and EdgeAttend scores, normalises and sums the edges
// through their row indices, without the per-edge copies Forward
// gathers. Both give Forward's bits.
type GATv2 struct {
	WSrc, WDst, Att *Param
}

// AttentionSlope is the negative slope of the LeakyReLU inside the GATv2
// attention score.
const AttentionSlope = 0.2

// NewGATv2 creates the relation's parameters.
func NewGATv2(ps *ParamSet, rng *rand.Rand, name string, in, out int) *GATv2 {
	return &GATv2{
		WSrc: ps.New(name+".Ws", tensor.XavierInit(rng, in, out)),
		WDst: ps.New(name+".Wd", tensor.XavierInit(rng, in, out)),
		Att:  ps.New(name+".a", tensor.XavierInit(rng, out, 1)),
	}
}

// Forward computes the messages into nDst destination nodes. srcIdx/dstIdx
// are the edge lists (source row in hSrc, destination row index). With no
// edges every message row is exactly zero.
func (g *GATv2) Forward(c *Ctx, hSrc, hDst *autodiff.Node, srcIdx, dstIdx []int, nDst int) *autodiff.Node {
	es := c.T.Gather(c.T.MatMul(hSrc, c.P(g.WSrc)), srcIdx)
	ed := c.T.Gather(c.T.MatMul(hDst, c.P(g.WDst)), dstIdx)
	s := c.T.AddLeakyReLU(es, ed, AttentionSlope)
	alpha := c.T.SegmentSoftmax(c.T.MatMul(s, c.P(g.Att)), dstIdx, nDst)
	return c.T.SegmentSumMulCol(es, alpha, dstIdx, nDst)
}
