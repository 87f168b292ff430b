package autodiff

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mpidetect/internal/tensor"
)

// numGrad estimates d(loss)/d(x[i]) by central differences for a scalar
// loss produced by f from the current contents of x.
func numGrad(x *tensor.Mat, f func() float64) *tensor.Mat {
	const h = 1e-6
	out := tensor.New(x.R, x.C)
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		up := f()
		x.Data[i] = orig - h
		down := f()
		x.Data[i] = orig
		out.Data[i] = (up - down) / (2 * h)
	}
	return out
}

// checkGrad builds the graph via build (returning the scalar loss node and
// the input node), runs Backward, and compares the analytic input gradient
// with numerical differentiation.
func checkGrad(t *testing.T, name string, x *tensor.Mat, build func(tp *Tape, in *Node) *Node) {
	t.Helper()
	f := func() float64 {
		tp := NewTape()
		in := tp.Input(x)
		return build(tp, in).Val.Data[0]
	}
	want := numGrad(x, f)
	tp := NewTape()
	in := tp.Input(x)
	loss := build(tp, in)
	tp.Backward(loss)
	if !tensor.Equalish(in.Grad, want, 1e-4) {
		t.Errorf("%s: analytic grad %v != numeric %v", name, in.Grad.Data, want.Data)
	}
}

// sumAll reduces any node to a scalar via fixed random weights (so the
// gradient is non-trivial).
func sumAll(tp *Tape, n *Node) *Node {
	w := tensor.New(n.Val.C, 1)
	for i := range w.Data {
		w.Data[i] = float64(i%5) - 2.1
	}
	col := tp.MatMul(n, tp.Input(w))
	ones := tensor.New(1, col.Val.R)
	for i := range ones.Data {
		ones.Data[i] = float64(i%3) + 0.5
	}
	return tp.MatMul(tp.Input(ones), col)
}

func randMat(rng *rand.Rand, r, c int) *tensor.Mat {
	return tensor.Randn(rng, r, c, 1)
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randMat(rng, 3, 4)
	other := randMat(rng, 4, 2)
	checkGrad(t, "matmul", x, func(tp *Tape, in *Node) *Node {
		return sumAll(tp, tp.MatMul(in, tp.Input(other)))
	})
}

func TestGradAddAndAddRow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randMat(rng, 3, 4)
	b := randMat(rng, 3, 4)
	checkGrad(t, "add", x, func(tp *Tape, in *Node) *Node {
		return sumAll(tp, tp.Add(in, tp.Input(b)))
	})
	row := randMat(rng, 1, 4)
	checkGrad(t, "addrow", x, func(tp *Tape, in *Node) *Node {
		return sumAll(tp, tp.AddRow(in, tp.Input(row)))
	})
	// gradient also flows into the broadcast row
	checkGrad(t, "addrow-row", row, func(tp *Tape, in *Node) *Node {
		return sumAll(tp, tp.AddRow(tp.Input(x), in))
	})
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randMat(rng, 4, 3)
	checkGrad(t, "leakyrelu", x, func(tp *Tape, in *Node) *Node {
		return sumAll(tp, tp.LeakyReLU(in, 0.2))
	})
	checkGrad(t, "elu", x, func(tp *Tape, in *Node) *Node {
		return sumAll(tp, tp.ELU(in))
	})
}

func TestGradGatherSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randMat(rng, 4, 3)
	idx := []int{0, 2, 2, 3, 1, 0}
	seg := []int{0, 0, 1, 2, 2, 2}
	checkGrad(t, "gather", x, func(tp *Tape, in *Node) *Node {
		return sumAll(tp, tp.Gather(in, idx))
	})
	checkGrad(t, "segsum", x, func(tp *Tape, in *Node) *Node {
		g := tp.Gather(in, idx)
		return sumAll(tp, tp.SegmentSum(g, seg, 3))
	})
}

func TestGradSegmentSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randMat(rng, 6, 1)
	seg := []int{0, 0, 1, 1, 1, 2}
	checkGrad(t, "segsoftmax", x, func(tp *Tape, in *Node) *Node {
		sm := tp.SegmentSoftmax(in, seg, 3)
		w := tensor.New(1, 6)
		for i := range w.Data {
			w.Data[i] = float64(i) - 2.5
		}
		return tp.MatMul(tp.Input(w), sm)
	})
}

func TestSegmentSoftmaxNormalises(t *testing.T) {
	tp := NewTape()
	x := tp.Input(tensor.FromSlice(5, 1, []float64{1, 2, 3, -1, 0}))
	seg := []int{0, 0, 0, 1, 1}
	sm := tp.SegmentSoftmax(x, seg, 2)
	s0 := sm.Val.Data[0] + sm.Val.Data[1] + sm.Val.Data[2]
	s1 := sm.Val.Data[3] + sm.Val.Data[4]
	if math.Abs(s0-1) > 1e-12 || math.Abs(s1-1) > 1e-12 {
		t.Errorf("segment sums = %g, %g; want 1", s0, s1)
	}
}

func TestGradMulCol(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randMat(rng, 4, 3)
	col := randMat(rng, 4, 1)
	checkGrad(t, "mulcol-a", x, func(tp *Tape, in *Node) *Node {
		return sumAll(tp, tp.MulCol(in, tp.Input(col)))
	})
	checkGrad(t, "mulcol-col", col, func(tp *Tape, in *Node) *Node {
		return sumAll(tp, tp.MulCol(tp.Input(x), in))
	})
}

func TestGradPooling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randMat(rng, 5, 3)
	checkGrad(t, "maxrows", x, func(tp *Tape, in *Node) *Node {
		return sumAll(tp, tp.MaxRows(in))
	})
}

func TestGradConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randMat(rng, 3, 2)
	b := randMat(rng, 3, 4)
	checkGrad(t, "concat-a", a, func(tp *Tape, in *Node) *Node {
		return sumAll(tp, tp.Concat(in, tp.Input(b)))
	})
	checkGrad(t, "concat-b", b, func(tp *Tape, in *Node) *Node {
		return sumAll(tp, tp.Concat(tp.Input(a), in))
	})
}

func TestGradCrossEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	logits := randMat(rng, 1, 5)
	checkGrad(t, "ce", logits, func(tp *Tape, in *Node) *Node {
		return tp.CrossEntropyLogits(in, 2)
	})
}

func TestSoftmaxSumsToOne(t *testing.T) {
	p := Softmax([]float64{2, -1, 0.5, 3})
	s := 0.0
	for _, v := range p {
		s += v
	}
	if math.Abs(s-1) > 1e-12 {
		t.Errorf("softmax sums to %g", s)
	}
	if p[3] <= p[0] {
		t.Error("softmax ordering wrong")
	}
}

func TestGradChain(t *testing.T) {
	// Composite check: a miniature GATv2-shaped computation end to end.
	rng := rand.New(rand.NewSource(10))
	h := randMat(rng, 4, 3)
	w := randMat(rng, 3, 2)
	att := randMat(rng, 2, 1)
	src := []int{0, 1, 2, 3, 1}
	dst := []int{1, 0, 0, 2, 2}
	checkGrad(t, "gat-chain", h, func(tp *Tape, in *Node) *Node {
		hw := tp.MatMul(in, tp.Input(w))
		es := tp.Gather(hw, src)
		ed := tp.Gather(hw, dst)
		s := tp.LeakyReLU(tp.Add(es, ed), 0.2)
		e := tp.MatMul(s, tp.Input(att))
		al := tp.SegmentSoftmax(e, dst, 4)
		msg := tp.MulCol(es, al)
		out := tp.SegmentSum(msg, dst, 4)
		return sumAll(tp, out)
	})
}

// runPass builds a graph over fresh inputs, backprops the scalar loss and
// returns (loss value, input grads) for fused-vs-unfused comparisons.
func runPass(xs []*tensor.Mat, build func(tp *Tape, ins []*Node) *Node) (float64, []*tensor.Mat) {
	tp := NewTape()
	ins := make([]*Node, len(xs))
	for i, x := range xs {
		ins[i] = tp.Input(x)
	}
	loss := build(tp, ins)
	tp.Backward(loss)
	grads := make([]*tensor.Mat, len(ins))
	for i, in := range ins {
		grads[i] = in.Grad.Clone()
	}
	return loss.Val.Data[0], grads
}

// TestFusedOpsBitIdentical pins each fused op to the exact composition it
// replaces: same loss bits, same input-gradient bits. The GNN's training
// determinism across hosts depends on this.
func TestFusedOpsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	randn := func(r, c int) *tensor.Mat { return tensor.Randn(rng, r, c, 1) }
	seg := []int{0, 2, 1, 2, 0, 2, 1, 1}

	cases := []struct {
		name    string
		xs      []*tensor.Mat
		fused   func(tp *Tape, ins []*Node) *Node
		unfused func(tp *Tape, ins []*Node) *Node
	}{
		{
			name: "MatMulAddRow",
			xs:   []*tensor.Mat{randn(6, 4), randn(4, 3), randn(1, 3)},
			fused: func(tp *Tape, ins []*Node) *Node {
				return sumAll(tp, tp.MatMulAddRow(ins[0], ins[1], ins[2]))
			},
			unfused: func(tp *Tape, ins []*Node) *Node {
				return sumAll(tp, tp.AddRow(tp.MatMul(ins[0], ins[1]), ins[2]))
			},
		},
		{
			name: "AddLeakyReLU",
			xs:   []*tensor.Mat{randn(8, 5), randn(8, 5)},
			fused: func(tp *Tape, ins []*Node) *Node {
				return sumAll(tp, tp.AddLeakyReLU(ins[0], ins[1], 0.2))
			},
			unfused: func(tp *Tape, ins []*Node) *Node {
				return sumAll(tp, tp.LeakyReLU(tp.Add(ins[0], ins[1]), 0.2))
			},
		},
		{
			name: "SegmentSumMulCol",
			xs:   []*tensor.Mat{randn(8, 5), randn(8, 1)},
			fused: func(tp *Tape, ins []*Node) *Node {
				return sumAll(tp, tp.SegmentSumMulCol(ins[0], ins[1], seg, 3))
			},
			unfused: func(tp *Tape, ins []*Node) *Node {
				return sumAll(tp, tp.SegmentSum(tp.MulCol(ins[0], ins[1]), seg, 3))
			},
		},
	}
	for _, c := range cases {
		lf, gf := runPass(c.xs, c.fused)
		lu, gu := runPass(c.xs, c.unfused)
		if lf != lu {
			t.Errorf("%s: fused loss %v != unfused %v", c.name, lf, lu)
		}
		for i := range gf {
			for j := range gf[i].Data {
				if gf[i].Data[j] != gu[i].Data[j] {
					t.Fatalf("%s: input %d grad[%d] fused %v != unfused %v",
						c.name, i, j, gf[i].Data[j], gu[i].Data[j])
				}
			}
		}
	}
}

// TestGradFusedOps property-checks the fused gradients against numerical
// differentiation directly.
func TestGradFusedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.Randn(rng, 5, 4, 1)
	w := tensor.Randn(rng, 4, 3, 1)
	bias := tensor.Randn(rng, 1, 3, 1)
	checkGrad(t, "MatMulAddRow", x, func(tp *Tape, in *Node) *Node {
		return sumAll(tp, tp.MatMulAddRow(in, tp.Input(w), tp.Input(bias)))
	})
	other := tensor.Randn(rng, 5, 4, 1)
	checkGrad(t, "AddLeakyReLU", x, func(tp *Tape, in *Node) *Node {
		return sumAll(tp, tp.AddLeakyReLU(in, tp.Input(other), 0.2))
	})
	col := tensor.Randn(rng, 5, 1, 1)
	seg := []int{1, 0, 1, 2, 0}
	checkGrad(t, "SegmentSumMulCol.a", x, func(tp *Tape, in *Node) *Node {
		return sumAll(tp, tp.SegmentSumMulCol(in, tp.Input(col), seg, 3))
	})
	checkGrad(t, "SegmentSumMulCol.col", col, func(tp *Tape, in *Node) *Node {
		return sumAll(tp, tp.SegmentSumMulCol(tp.Input(x), in, seg, 3))
	})
}

// TestInferenceTapeMatchesTraining checks a forward-only tape produces the
// same values as a recording tape and allocates no gradient storage.
func TestInferenceTapeMatchesTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	x := tensor.Randn(rng, 6, 4, 1)
	w := tensor.Randn(rng, 4, 3, 1)
	build := func(tp *Tape) *Node {
		in := tp.Input(x)
		h := tp.ELU(tp.MatMul(in, tp.Input(w)))
		return tp.MaxRows(h)
	}
	train := build(NewTape())
	inf := NewTape()
	inf.SetInference(true)
	got := build(inf)
	for i := range train.Val.Data {
		if got.Val.Data[i] != train.Val.Data[i] {
			t.Fatalf("inference value %d: %v != %v", i, got.Val.Data[i], train.Val.Data[i])
		}
	}
	if got.Grad != nil {
		t.Error("inference node carries gradient storage")
	}
	defer func() {
		if recover() == nil {
			t.Error("Backward on an inference tape did not panic")
		}
	}()
	inf.Backward(got)
}

// TestTapeResetReusesArena checks that a reused tape allocates (almost)
// nothing after warm-up and keeps producing identical results.
func TestTapeResetReusesArena(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.Randn(rng, 10, 8, 1)
	w := tensor.Randn(rng, 8, 6, 1)
	tp := NewTape()
	pass := func() float64 {
		tp.Reset()
		in := tp.Input(x)
		loss := sumAll(tp, tp.ELU(tp.MatMul(in, tp.Input(w))))
		tp.Backward(loss)
		return loss.Val.Data[0]
	}
	first := pass()
	allocs := testing.AllocsPerRun(20, func() {
		if pass() != first {
			t.Fatal("reused tape changed the result")
		}
	})
	// Backward closures still allocate; matrices and nodes must not.
	if allocs > 24 {
		t.Errorf("reused tape allocates %v times per pass, want <= 24", allocs)
	}
}

// TestELUAddNBitIdentical pins the fused accumulate+activate against the
// Add-chain + ELU composition it replaces: the same output, loss and
// input-gradient bits. It runs over normals, and over math.Exp's edges
// and special values: ±0, the smallest negative subnormal, the smallest
// normal and subnormal results (-708.39…, -745.13…) and the edge where
// the vector exp hands a group to math.Exp, values past underflow,
// ±Inf, ±MaxFloat64 and NaNs with distinct payloads. There the second
// and third inputs are -0, which leaves every sum its first input's
// bits, except in every third and every fifth entry, where they are
// specials too, so the sums add two NaNs or two infinities.
func TestELUAddNBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	normals := []*tensor.Mat{
		tensor.Randn(rng, 7, 5, 1),
		tensor.Randn(rng, 7, 5, 1),
		tensor.Randn(rng, 7, 5, 1),
	}
	edges := []float64{
		0, math.Copysign(0, -1), -math.SmallestNonzeroFloat64,
		-708.3964185322641, -745.1332191019411, -1022.5 * math.Ln2, -746, -1e4,
		math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, -1, -0.5, 2,
		math.Float64frombits(0x7ff8_0000_0000_0011),
		math.Float64frombits(0xfff8_0000_0000_0022),
		math.Float64frombits(0x7ff0_0000_0000_0033),
	}
	specials := []*tensor.Mat{tensor.New(9, 8), tensor.New(9, 8), tensor.New(9, 8)}
	for i := range specials[0].Data {
		specials[0].Data[i] = edges[i%len(edges)]
		specials[1].Data[i] = math.Copysign(0, -1)
		specials[2].Data[i] = math.Copysign(0, -1)
		if i%3 == 0 {
			specials[1].Data[i] = edges[rng.Intn(len(edges))]
		}
		if i%5 == 0 {
			specials[2].Data[i] = edges[rng.Intn(len(edges))]
		}
	}
	for _, c := range []struct {
		name string
		xs   []*tensor.Mat
	}{{"normals", normals}, {"specials", specials}} {
		var fused, unfused *tensor.Mat
		lf, gf := runPass(c.xs, func(tp *Tape, ins []*Node) *Node {
			out := tp.ELUAddN(ins[0], ins[1], ins[2])
			fused = out.Val
			return sumAll(tp, out)
		})
		lu, gu := runPass(c.xs, func(tp *Tape, ins []*Node) *Node {
			out := tp.ELU(tp.Add(tp.Add(ins[0], ins[1]), ins[2]))
			unfused = out.Val
			return sumAll(tp, out)
		})
		sameBits(t, c.name+": output", fused, unfused)
		if math.Float64bits(lf) != math.Float64bits(lu) {
			t.Errorf("%s: fused loss %v != unfused %v", c.name, lf, lu)
		}
		for i := range gf {
			sameBits(t, fmt.Sprintf("%s: input %d grad", c.name, i), gf[i], gu[i])
		}
	}
	// Single-input degenerate form equals plain ELU.
	l1, _ := runPass(normals[:1], func(tp *Tape, ins []*Node) *Node {
		return sumAll(tp, tp.ELUAddN(ins[0]))
	})
	l2, _ := runPass(normals[:1], func(tp *Tape, ins []*Node) *Node {
		return sumAll(tp, tp.ELU(ins[0]))
	})
	if l1 != l2 {
		t.Errorf("single-input ELUAddN %v != ELU %v", l1, l2)
	}
}

// TestSegmentMaxRowsMatchesMaxRows pins the segmented pool to a per-segment
// MaxRows, value and gradient: a block of rows pooled through the batch op
// must be bit-identical to pooling it alone.
func TestSegmentMaxRowsMatchesMaxRows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := randMat(rng, 7, 4)
	seg := []int{0, 0, 0, 2, 2, 2, 2} // segment 1 deliberately empty
	tp := NewTape()
	in := tp.Input(x)
	out := tp.SegmentMaxRows(in, seg, 3)
	if out.Val.R != 3 || out.Val.C != 4 {
		t.Fatalf("shape %dx%d, want 3x4", out.Val.R, out.Val.C)
	}
	for j := 0; j < 4; j++ {
		if out.Val.At(1, j) != 0 {
			t.Fatalf("empty segment column %d = %v, want 0", j, out.Val.At(1, j))
		}
	}
	for _, blk := range [][2]int{{0, 3}, {3, 7}} {
		sub := &tensor.Mat{R: blk[1] - blk[0], C: 4, Data: x.Data[blk[0]*4 : blk[1]*4]}
		tps := NewTape()
		ref := tps.MaxRows(tps.Input(sub))
		s := seg[blk[0]]
		for j := 0; j < 4; j++ {
			if out.Val.At(s, j) != ref.Val.Data[j] {
				t.Fatalf("segment %d column %d: %v, want %v", s, j, out.Val.At(s, j), ref.Val.Data[j])
			}
		}
	}
	checkGrad(t, "segmentmaxrows", x, func(tp *Tape, in *Node) *Node {
		return sumAll(tp, tp.SegmentMaxRows(in, seg, 3))
	})
}
