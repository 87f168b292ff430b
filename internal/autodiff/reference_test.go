package autodiff

import (
	"math"

	"mpidetect/internal/tensor"
)

// The unfused ops below are the references the fused training ops are
// checked against; training and inference never call them.

// Add returns a + b (same shape).
func (t *Tape) Add(a, b *Node) *Node {
	val := t.cloneMat(a.Val)
	tensor.AddInPlace(val, b.Val)
	out := t.node(val)
	if !t.inference {
		out.back = func() {
			tensor.AddInPlace(a.Grad, out.Grad)
			tensor.AddInPlace(b.Grad, out.Grad)
		}
	}
	return out
}

// ELU applies x>=0 ? x : exp(x)-1 elementwise.
func (t *Tape) ELU(a *Node) *Node {
	val := t.cloneMat(a.Val)
	for i, v := range val.Data {
		if v < 0 {
			val.Data[i] = math.Exp(v) - 1
		}
	}
	out := t.node(val)
	if !t.inference {
		out.back = func() {
			og := out.Grad.Data
			av := a.Val.Data[:len(og)]
			ag := a.Grad.Data[:len(og)]
			ov := out.Val.Data[:len(og)]
			for i, g := range og {
				if av[i] < 0 {
					ag[i] += g * (ov[i] + 1) // d/dx (e^x - 1) = e^x
				} else {
					ag[i] += g
				}
			}
		}
	}
	return out
}

// SegmentSum sums rows of a into nSeg buckets chosen by seg.
func (t *Tape) SegmentSum(a *Node, seg []int, nSeg int) *Node {
	val := t.newMat(nSeg, a.Val.C, true)
	for i, s := range seg {
		src := a.Val.Row(i)
		dst := val.Row(s)[:len(src)]
		for j, v := range src {
			dst[j] += v
		}
	}
	out := t.node(val)
	if !t.inference {
		out.back = func() {
			for i, s := range seg {
				src := out.Grad.Row(s)
				dst := a.Grad.Row(i)[:len(src)]
				for j, v := range src {
					dst[j] += v
				}
			}
		}
	}
	return out
}
