// Package autodiff implements a tape-based reverse-mode automatic
// differentiation engine over dense matrices, with the gather/segment
// operations graph neural networks need (edge gathers, per-destination
// softmax, segment sums, max pooling). The GNN of the paper (§IV-B) is
// built entirely from these primitives, and the gradients are
// property-tested against numerical differentiation.
//
// Tapes own an arena: node structs, matrix headers and float storage are
// slab-allocated and recycled by Reset, so a training loop that reuses
// one tape per worker runs its forward and backward passes with near-zero
// heap allocation — the GC pressure of allocating every intermediate
// matrix fresh used to dominate GNN training time.
package autodiff

import (
	"math"

	"mpidetect/internal/region"
	"mpidetect/internal/tensor"
)

// Node is one value in the computation graph.
type Node struct {
	Val  *tensor.Mat
	Grad *tensor.Mat
	back func()
	tape *Tape
}

// Tape records operations so Backward can replay them in reverse. The
// zero value (via NewTape) allocates lazily; Reset recycles everything the
// tape handed out, invalidating all nodes and matrices from the previous
// pass.
type Tape struct {
	nodes []*Node
	live  int

	mats     []*tensor.Mat
	matsUsed int

	slabs  [][]float64
	slab   int
	off    int
	handed int // floats handed out since Reset

	// ints holds the argmax indices of MaxRows and SegmentMaxRows. Reset
	// recycles it like the float arena: the backward closures that read
	// them run before the next Reset.
	ints region.Slab[int]

	// inference skips gradient storage and backward closures: forward-only
	// passes (Predict) do half the arena traffic and no closure allocation.
	// It never changes forward arithmetic.
	inference bool
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Reset recycles the tape's arena for a fresh pass. Every *Node and every
// matrix previously returned by this tape's operations becomes invalid:
// callers must copy out any value (logits, predictions) they need before
// resetting.
func (t *Tape) Reset() {
	t.live = 0
	t.matsUsed = 0
	t.slab = 0
	t.off = 0
	t.handed = 0
	t.ints.Reset()
}

// ArenaFloats reports how many floats of arena storage the tape has
// handed out since the last Reset: the pass's arena high-water, which
// bounds the slab memory a pooled tape keeps.
func (t *Tape) ArenaFloats() int { return t.handed }

// slabFloats is the arena granularity (64k floats = 512KiB per slab),
// and intChunk that of the argmax ints.
const (
	slabFloats = 1 << 16
	intChunk   = 256
)

// alloc hands out n floats of arena memory, zeroed when clearMem is set
// (accumulation targets need it; fully-overwritten buffers skip it).
func (t *Tape) alloc(n int, clearMem bool) []float64 {
	if n == 0 {
		return nil
	}
	t.handed += n
	for {
		if t.slab < len(t.slabs) {
			s := t.slabs[t.slab]
			if t.off+n <= len(s) {
				out := s[t.off : t.off+n : t.off+n]
				t.off += n
				if clearMem {
					for i := range out {
						out[i] = 0
					}
				}
				return out
			}
			t.slab++
			t.off = 0
			continue
		}
		size := slabFloats
		if n > size {
			size = n
		}
		t.slabs = append(t.slabs, make([]float64, size))
	}
}

// newMat returns an arena-backed r×c matrix (zeroed when clearMem).
func (t *Tape) newMat(r, c int, clearMem bool) *tensor.Mat {
	var m *tensor.Mat
	if t.matsUsed < len(t.mats) {
		m = t.mats[t.matsUsed]
	} else {
		m = &tensor.Mat{}
		t.mats = append(t.mats, m)
	}
	t.matsUsed++
	m.R, m.C = r, c
	m.Data = t.alloc(r*c, clearMem)
	return m
}

// cloneMat copies a into arena storage.
func (t *Tape) cloneMat(a *tensor.Mat) *tensor.Mat {
	m := t.newMat(a.R, a.C, false)
	copy(m.Data, a.Data)
	return m
}

func (t *Tape) node(val *tensor.Mat) *Node {
	var n *Node
	if t.live < len(t.nodes) {
		n = t.nodes[t.live]
		n.Val, n.back = val, nil
	} else {
		n = &Node{Val: val, tape: t}
		t.nodes = append(t.nodes, n)
	}
	if t.inference {
		n.Grad = nil
	} else {
		n.Grad = t.newMat(val.R, val.C, true)
	}
	t.live++
	return n
}

// Input registers a leaf value (input or parameter).
func (t *Tape) Input(val *tensor.Mat) *Node {
	return t.node(val)
}

// SetInference switches the tape into (or out of) forward-only mode from
// the next Reset onward: no gradient matrices, no backward closures.
// Backward panics on an inference tape.
func (t *Tape) SetInference(on bool) { t.inference = on }

// inferenceOnly panics unless t is an inference tape: the op it guards
// records no backward pass.
func (t *Tape) inferenceOnly(op string) {
	if !t.inference {
		panic("autodiff: " + op + " on a training tape")
	}
}

// Backward seeds d(loss)=1 and propagates gradients to every node.
func (t *Tape) Backward(loss *Node) {
	if t.inference {
		panic("autodiff: Backward on an inference tape")
	}
	if loss.Val.R != 1 || loss.Val.C != 1 {
		panic("autodiff: Backward needs a scalar loss")
	}
	loss.Grad.Data[0] = 1
	for i := t.live - 1; i >= 0; i-- {
		if t.nodes[i].back != nil {
			t.nodes[i].back()
		}
	}
}

// MatMul returns a @ b.
func (t *Tape) MatMul(a, b *Node) *Node {
	val := t.newMat(a.Val.R, b.Val.C, false) // MatMulInto overwrites
	tensor.MatMulInto(val, a.Val, b.Val)
	out := t.node(val)
	if !t.inference {
		out.back = func() {
			tensor.MatMulABTAddInto(a.Grad, out.Grad, b.Val)
			tmp := t.newMat(a.Val.C, out.Grad.C, true)
			tensor.MatMulATBInto(tmp, a.Val, out.Grad)
			tensor.AddInPlace(b.Grad, tmp)
		}
	}
	return out
}

// AddRow broadcasts a 1×C row b over the R×C matrix a.
func (t *Tape) AddRow(a, b *Node) *Node {
	if b.Val.R != 1 || b.Val.C != a.Val.C {
		panic("autodiff: AddRow shape mismatch")
	}
	val := t.cloneMat(a.Val)
	addRowInPlace(val, b.Val.Data)
	out := t.node(val)
	if !t.inference {
		out.back = func() {
			tensor.AddInPlace(a.Grad, out.Grad)
			for i := 0; i < out.Grad.R; i++ {
				row := out.Grad.Row(i)
				for j, v := range row {
					b.Grad.Data[j] += v
				}
			}
		}
	}
	return out
}

// LeakyReLU applies max(x, alpha*x) elementwise.
func (t *Tape) LeakyReLU(a *Node, alpha float64) *Node {
	val := t.cloneMat(a.Val)
	for i, v := range val.Data {
		if v < 0 {
			val.Data[i] = alpha * v
		}
	}
	out := t.node(val)
	if !t.inference {
		out.back = func() {
			og := out.Grad.Data
			av := a.Val.Data[:len(og)]
			ag := a.Grad.Data[:len(og)]
			for i, g := range og {
				if av[i] < 0 {
					ag[i] += alpha * g
				} else {
					ag[i] += g
				}
			}
		}
	}
	return out
}

// ReLU applies max(x, 0) elementwise.
func (t *Tape) ReLU(a *Node) *Node { return t.LeakyReLU(a, 0) }

// Gather selects rows of a by index (duplicates allowed).
func (t *Tape) Gather(a *Node, idx []int) *Node {
	val := t.newMat(len(idx), a.Val.C, false)
	for i, r := range idx {
		copy(val.Row(i), a.Val.Row(r))
	}
	out := t.node(val)
	if !t.inference {
		out.back = func() {
			for i, r := range idx {
				src := out.Grad.Row(i)
				dst := a.Grad.Row(r)[:len(src)]
				for j, v := range src {
					dst[j] += v
				}
			}
		}
	}
	return out
}

// SegmentSoftmax normalises the E×1 column a with a softmax within each
// segment (the attention normalisation of GAT).
func (t *Tape) SegmentSoftmax(a *Node, seg []int, nSeg int) *Node {
	if a.Val.C != 1 {
		panic("autodiff: SegmentSoftmax needs an E×1 column")
	}
	val := t.newMat(a.Val.R, 1, false)
	segmentSoftmax(val.Data, a.Val.Data, seg, t.alloc(nSeg, false), t.alloc(nSeg, false))
	out := t.node(val)
	if !t.inference {
		out.back = func() {
			// dL/dx_i = y_i * (g_i - sum_j in seg y_j g_j)
			dots := t.alloc(nSeg, true)
			for i, s := range seg {
				dots[s] += out.Val.Data[i] * out.Grad.Data[i]
			}
			for i, s := range seg {
				a.Grad.Data[i] += out.Val.Data[i] * (out.Grad.Data[i] - dots[s])
			}
		}
	}
	return out
}

// segmentSoftmax writes to dst[i] the softmax of src[i] within segment
// seg[i]: the segment's maximum is subtracted before exponentiating, and
// a segment whose exponentials sum to zero keeps them unnormalised. dst
// may be src. maxs and sums are scratch, one entry per segment.
func segmentSoftmax(dst, src []float64, seg []int, maxs, sums []float64) {
	for i := range maxs {
		maxs[i] = math.Inf(-1)
	}
	for i, s := range seg {
		if v := src[i]; v > maxs[s] {
			maxs[s] = v
		}
	}
	clear(sums)
	for i, s := range seg {
		e := math.Exp(src[i] - maxs[s])
		dst[i] = e
		sums[s] += e
	}
	for i, s := range seg {
		if sums[s] > 0 {
			dst[i] /= sums[s]
		}
	}
}

// MulCol multiplies each row i of a (R×C) by the scalar col.Data[i] (R×1).
func (t *Tape) MulCol(a, col *Node) *Node {
	if col.Val.C != 1 || col.Val.R != a.Val.R {
		panic("autodiff: MulCol shape mismatch")
	}
	val := t.cloneMat(a.Val)
	for i := 0; i < val.R; i++ {
		s := col.Val.Data[i]
		row := val.Row(i)
		for j := range row {
			row[j] *= s
		}
	}
	out := t.node(val)
	if !t.inference {
		out.back = func() {
			for i := 0; i < a.Val.R; i++ {
				s := col.Val.Data[i]
				gRow := out.Grad.Row(i)
				aRow := a.Val.Row(i)
				aG := a.Grad.Row(i)
				dot := 0.0
				for j, g := range gRow {
					aG[j] += s * g
					dot += aRow[j] * g
				}
				col.Grad.Data[i] += dot
			}
		}
	}
	return out
}

// MaxRows pools an R×C matrix to 1×C by taking the columnwise maximum
// (adaptive max pooling over all nodes of a graph).
func (t *Tape) MaxRows(a *Node) *Node {
	val := t.newMat(1, a.Val.C, false)
	arg := t.ints.Take(a.Val.C, intChunk)
	for j := 0; j < a.Val.C; j++ {
		best := math.Inf(-1)
		bi := 0
		for i := 0; i < a.Val.R; i++ {
			if v := a.Val.At(i, j); v > best {
				best = v
				bi = i
			}
		}
		val.Data[j] = best
		arg[j] = bi
	}
	out := t.node(val)
	if !t.inference {
		out.back = func() {
			for j, i := range arg {
				a.Grad.Set(i, j, a.Grad.At(i, j)+out.Grad.Data[j])
			}
		}
	}
	return out
}

// SegmentMaxRows pools an R×C matrix to nSeg×C, taking the columnwise
// maximum over the rows of each segment — MaxRows applied per segment,
// with the same comparison loop (strict >, rows in ascending order), so a
// block-diagonal batch pools each block exactly like a per-graph MaxRows.
// An empty segment yields a zero row, matching the zero vector the
// unbatched forward substitutes for an absent node kind.
func (t *Tape) SegmentMaxRows(a *Node, seg []int, nSeg int) *Node {
	c := a.Val.C
	val := t.newMat(nSeg, c, true) // empty segments stay zero
	bests := t.alloc(nSeg*c, false)
	for i := range bests {
		bests[i] = math.Inf(-1)
	}
	arg := t.ints.Take(nSeg*c, intChunk)
	first := t.ints.Take(nSeg, intChunk)
	for s := range first {
		first[s] = -1
	}
	for i, s := range seg {
		if first[s] < 0 {
			first[s] = i
		}
		row := a.Val.Row(i)
		bb := bests[s*c : (s+1)*c]
		ab := arg[s*c : (s+1)*c]
		for j, v := range row {
			if v > bb[j] {
				bb[j] = v
				ab[j] = i
			}
		}
	}
	for s := 0; s < nSeg; s++ {
		if first[s] < 0 {
			continue
		}
		out := val.Row(s)
		ab := arg[s*c : (s+1)*c]
		for j := range out {
			if bests[s*c+j] == math.Inf(-1) {
				// No row beat -Inf (all -Inf/NaN): MaxRows reports -Inf with
				// the first row as argmax.
				ab[j] = first[s]
			}
			out[j] = bests[s*c+j]
		}
	}
	out := t.node(val)
	if !t.inference {
		out.back = func() {
			for s := 0; s < nSeg; s++ {
				if first[s] < 0 {
					continue
				}
				g := out.Grad.Row(s)
				ab := arg[s*c : (s+1)*c]
				for j, i := range ab {
					a.Grad.Set(i, j, a.Grad.At(i, j)+g[j])
				}
			}
		}
	}
	return out
}

// Concat stacks two matrices horizontally (same R).
func (t *Tape) Concat(a, b *Node) *Node {
	if a.Val.R != b.Val.R {
		panic("autodiff: Concat row mismatch")
	}
	val := t.newMat(a.Val.R, a.Val.C+b.Val.C, false)
	for i := 0; i < val.R; i++ {
		copy(val.Row(i)[:a.Val.C], a.Val.Row(i))
		copy(val.Row(i)[a.Val.C:], b.Val.Row(i))
	}
	out := t.node(val)
	if !t.inference {
		out.back = func() {
			for i := 0; i < val.R; i++ {
				g := out.Grad.Row(i)
				ag := a.Grad.Row(i)
				bg := b.Grad.Row(i)
				for j := range ag {
					ag[j] += g[j]
				}
				for j := range bg {
					bg[j] += g[a.Val.C+j]
				}
			}
		}
	}
	return out
}

// CrossEntropyLogits computes softmax cross-entropy of a 1×C logits row
// against an integer label, returning a scalar node.
func (t *Tape) CrossEntropyLogits(logits *Node, label int) *Node {
	c := logits.Val.C
	maxv := math.Inf(-1)
	for _, v := range logits.Val.Data {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	probs := t.alloc(c, false)
	for i, v := range logits.Val.Data {
		probs[i] = math.Exp(v - maxv)
		sum += probs[i]
	}
	for i := range probs {
		probs[i] /= sum
	}
	loss := -math.Log(math.Max(probs[label], 1e-12))
	val := t.newMat(1, 1, false)
	val.Data[0] = loss
	out := t.node(val)
	if !t.inference {
		out.back = func() {
			g := out.Grad.Data[0]
			for i := 0; i < c; i++ {
				d := probs[i]
				if i == label {
					d -= 1
				}
				logits.Grad.Data[i] += g * d
			}
		}
	}
	return out
}

// Softmax returns the softmax of a 1×C row (inference helper).
func Softmax(row []float64) []float64 {
	maxv := math.Inf(-1)
	for _, v := range row {
		if v > maxv {
			maxv = v
		}
	}
	out := make([]float64, len(row))
	sum := 0.0
	for i, v := range row {
		out[i] = math.Exp(v - maxv)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// ---------------------------------------------------------------------------
// Fused operations. Each is bit-identical to the two-op composition it
// replaces (same per-element arithmetic in the same order); the fusion
// removes whole passes over edge-sized matrices — an intermediate clone,
// its gradient buffer, and a closure per call.
// ---------------------------------------------------------------------------

// MatMulAddRow returns a @ w + bias, with bias a 1×C row broadcast over
// the rows of the product: the dense-layer forward, fused so the product
// never materialises twice.
func (t *Tape) MatMulAddRow(a, w, bias *Node) *Node {
	if bias.Val.R != 1 || bias.Val.C != w.Val.C {
		panic("autodiff: MatMulAddRow bias shape mismatch")
	}
	val := t.newMat(a.Val.R, w.Val.C, false) // MatMulInto overwrites
	tensor.MatMulInto(val, a.Val, w.Val)
	addRowInPlace(val, bias.Val.Data)
	out := t.node(val)
	if !t.inference {
		out.back = func() {
			tensor.MatMulABTAddInto(a.Grad, out.Grad, w.Val)
			tmp := t.newMat(a.Val.C, out.Grad.C, true)
			tensor.MatMulATBInto(tmp, a.Val, out.Grad)
			tensor.AddInPlace(w.Grad, tmp)
			for i := 0; i < out.Grad.R; i++ {
				row := out.Grad.Row(i)
				for j, v := range row {
					bias.Grad.Data[j] += v
				}
			}
		}
	}
	return out
}

// AddLeakyReLU returns LeakyReLU(a + b, alpha) without materialising the
// sum node. The backward branch recomputes a+b, which is exactly the
// value the unfused sum node held.
func (t *Tape) AddLeakyReLU(a, b *Node, alpha float64) *Node {
	if a.Val.R != b.Val.R || a.Val.C != b.Val.C {
		panic("autodiff: AddLeakyReLU shape mismatch")
	}
	val := t.newMat(a.Val.R, a.Val.C, false)
	av := a.Val.Data
	bv := b.Val.Data[:len(av)]
	vd := val.Data[:len(av)]
	for i, x := range av {
		sum := x + bv[i]
		if sum < 0 {
			sum = alpha * sum
		}
		vd[i] = sum
	}
	out := t.node(val)
	if !t.inference {
		out.back = func() {
			og := out.Grad.Data
			ag := a.Grad.Data[:len(og)]
			bg := b.Grad.Data[:len(og)]
			av := a.Val.Data[:len(og)]
			bv := b.Val.Data[:len(og)]
			for i, g := range og {
				if av[i]+bv[i] < 0 {
					g = alpha * g
				}
				ag[i] += g
				bg[i] += g
			}
		}
	}
	return out
}

// SegmentSumMulCol sums rows of a, each scaled by its col entry, into
// nSeg buckets: SegmentSum(MulCol(a, col), seg, nSeg) without the scaled
// intermediate.
func (t *Tape) SegmentSumMulCol(a, col *Node, seg []int, nSeg int) *Node {
	if col.Val.C != 1 || col.Val.R != a.Val.R {
		panic("autodiff: SegmentSumMulCol shape mismatch")
	}
	val := t.newMat(nSeg, a.Val.C, true)
	for i, sg := range seg {
		s := col.Val.Data[i]
		src := a.Val.Row(i)
		dst := val.Row(sg)[:len(src)]
		for j, v := range src {
			dst[j] += v * s
		}
	}
	out := t.node(val)
	if !t.inference {
		out.back = func() {
			for i, sg := range seg {
				s := col.Val.Data[i]
				g := out.Grad.Row(sg)
				aRow := a.Val.Row(i)[:len(g)]
				aG := a.Grad.Row(i)[:len(g)]
				dot := 0.0
				for j, gv := range g {
					aG[j] += s * gv
					dot += aRow[j] * gv
				}
				col.Grad.Data[i] += dot
			}
		}
	}
	return out
}

// ELUAddN returns ELU(ins[0] + ins[1] + ... + ins[k-1]), fusing the GNN
// layer's message-accumulation chain (a left-associated Add per relation,
// then the activation) into one pass. The sum accumulates in argument
// order, exactly like the chain of two-input Adds it replaces; the
// backward branch keys on the stored output, which is negative exactly
// when the pre-activation sum was (exp(s)-1 is sign-preserving, and the
// boundary rounding cases collapse to the same gradient value).
func (t *Tape) ELUAddN(ins ...*Node) *Node {
	if len(ins) == 0 {
		panic("autodiff: ELUAddN needs at least one input")
	}
	r, c := ins[0].Val.R, ins[0].Val.C
	for _, in := range ins {
		if in.Val.R != r || in.Val.C != c {
			panic("autodiff: ELUAddN shape mismatch")
		}
	}
	val := t.newMat(r, c, false)
	vd := val.Data
	copy(vd, ins[0].Val.Data)
	for _, in := range ins[1:] {
		src := in.Val.Data[:len(vd)]
		for i := range vd {
			vd[i] += src[i]
		}
	}
	for i, v := range vd {
		if v < 0 {
			vd[i] = math.Exp(v) - 1
		}
	}
	out := t.node(val)
	if !t.inference {
		out.back = func() {
			og := out.Grad.Data
			ov := out.Val.Data[:len(og)]
			for _, in := range ins {
				ig := in.Grad.Data[:len(og)]
				for i, g := range og {
					if ov[i] < 0 {
						ig[i] += g * (ov[i] + 1) // d/dx (e^x - 1) = e^x
					} else {
						ig[i] += g
					}
				}
			}
		}
	}
	return out
}

// addRowInPlace adds the row bias to every row of m.
func addRowInPlace(m *tensor.Mat, bias []float64) {
	for i := 0; i < m.R; i++ {
		row := m.Row(i)[:len(bias)]
		for j, v := range bias {
			row[j] += v
		}
	}
}

// ---------------------------------------------------------------------------
// Inference-only operations. They read their inputs through row indices
// instead of gathered copies and record no backward pass, so they panic
// on a training tape. Each equals, bit for bit, the composition of the
// differentiable ops that training runs in its place.
// ---------------------------------------------------------------------------

// MatMulRows returns Gather(a, rows) @ b without the gathered copy: row i
// is a's row rows[i] times b.
func (t *Tape) MatMulRows(a *Node, rows []int, b *Node) *Node {
	t.inferenceOnly("MatMulRows")
	val := t.newMat(len(rows), b.Val.C, false) // MatMulRowsInto overwrites
	tensor.MatMulRowsInto(val, a.Val, rows, b.Val)
	return t.node(val)
}

// MatMulRowsAddRow returns MatMulAddRow(Gather(a, rows), w, bias) without
// the gathered copy.
func (t *Tape) MatMulRowsAddRow(a *Node, rows []int, w, bias *Node) *Node {
	t.inferenceOnly("MatMulRowsAddRow")
	if bias.Val.R != 1 || bias.Val.C != w.Val.C {
		panic("autodiff: MatMulRowsAddRow bias shape mismatch")
	}
	val := t.newMat(len(rows), w.Val.C, false) // MatMulRowsInto overwrites
	tensor.MatMulRowsInto(val, a.Val, rows, w.Val)
	addRowInPlace(val, bias.Val.Data)
	return t.node(val)
}

// EdgeAttend is GATv2 attention over projected rows read in place. Edge
// i joins source row srcAt[i] of hs to destination row dstAt[i] of hd
// and delivers into row dst[i] of the nDst-row result. It returns
//
//	es := Gather(hs, srcAt)
//	e := MatMul(AddLeakyReLU(es, Gather(hd, dstAt), slope), att)
//	SegmentSumMulCol(es, SegmentSoftmax(e, dst, nDst), dst, nDst)
//
// bit for bit: each edge's score sums lrelu(hs+hd)·att over ascending
// columns from +0, skipping exactly-zero activations as the column
// MatMul does, and the softmax and weighted sum visit the edges in
// their ops' order. It materialises no edge-by-width matrix: its only
// edge-sized storage is the score column, which the softmax normalises
// in place.
func (t *Tape) EdgeAttend(hs, hd, att *Node, srcAt, dstAt, dst []int, nDst int, slope float64) *Node {
	t.inferenceOnly("EdgeAttend")
	w := hs.Val.C
	if hd.Val.C != w || att.Val.R != w || att.Val.C != 1 {
		panic("autodiff: EdgeAttend shape mismatch")
	}
	if len(dstAt) != len(srcAt) || len(dst) != len(srcAt) {
		panic("autodiff: EdgeAttend edge list length mismatch")
	}
	a := att.Val.Data[:w]
	score := t.alloc(len(srcAt), false)
	for i, r := range srcAt {
		xs := hs.Val.Row(r)
		xd := hd.Val.Row(dstAt[i])[:len(xs)]
		ak := a[:len(xs)]
		s := 0.0
		for k, x := range xs {
			v := x + xd[k]
			if v < 0 {
				v = slope * v
			}
			if v == 0 {
				continue
			}
			s += v * ak[k]
		}
		score[i] = s
	}
	segmentSoftmax(score, score, dst, t.alloc(nDst, false), t.alloc(nDst, false))
	// SegmentSumMulCol's weighted sum, reading each source row in place.
	val := t.newMat(nDst, w, true)
	for i, sg := range dst {
		s := score[i]
		src := hs.Val.Row(srcAt[i])
		out := val.Row(sg)[:len(src)]
		for j, v := range src {
			out[j] += v * s
		}
	}
	return t.node(val)
}
