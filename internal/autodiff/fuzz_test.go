package autodiff

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"mpidetect/internal/tensor"
)

// fuzzSpecials are values whose bits the fused ops must carry exactly as
// the composition does: both zeros, both infinities, NaNs with distinct
// signs and payloads, subnormals and the overflow edge.
var fuzzSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.NaN(),
	math.Float64frombits(0xfff8_0000_dead_beef),
	math.Float64frombits(0x7ff0_0000_0000_0bad),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000f_ffff_ffff_ffff),
	math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// fuzzValues draws matrix entries: the first from raw, eight bytes each,
// then from rng, a quarter specials, a quarter signed zeros and the rest
// normals scaled across the exponent range.
type fuzzValues struct {
	raw []byte
	rng *rand.Rand
}

func (in *fuzzValues) next() float64 {
	if len(in.raw) >= 8 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(in.raw))
		in.raw = in.raw[8:]
		return v
	}
	switch in.rng.Intn(4) {
	case 0:
		return fuzzSpecials[in.rng.Intn(len(fuzzSpecials))]
	case 1:
		return math.Copysign(0, in.rng.NormFloat64())
	default:
		return math.Ldexp(in.rng.NormFloat64(), in.rng.Intn(1300)-650)
	}
}

func (in *fuzzValues) mat(r, c int) *tensor.Mat {
	m := tensor.New(r, c)
	for i := range m.Data {
		m.Data[i] = in.next()
	}
	return m
}

// indices returns n indices below bound, repeats allowed.
func (in *fuzzValues) indices(n, bound int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = in.rng.Intn(bound)
	}
	return out
}

// dirtyInference returns an inference tape whose arena holds NaNs from an
// earlier pass, so an op that relies on zeroed storage shows it.
func dirtyInference() *Tape {
	tp := NewTape()
	tp.SetInference(true)
	junk := tensor.New(1, 64)
	for i := range junk.Data {
		junk.Data[i] = math.Float64frombits(0x7ff8_0000_0000_0bad)
	}
	tp.Gather(tp.Input(junk), make([]int, 64))
	tp.Reset()
	return tp
}

// sameBits fails unless got and want are bit-identical, NaN payloads
// included.
func sameBits(t *testing.T, what string, got, want *tensor.Mat) {
	t.Helper()
	if got.R != want.R || got.C != want.C {
		t.Fatalf("%s: shape %dx%d, composition %dx%d", what, got.R, got.C, want.R, want.C)
	}
	for i := range want.Data {
		if g, w := math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]); g != w {
			t.Fatalf("%s: element %d: fused %v (%#x), composition %v (%#x)",
				what, i, got.Data[i], g, want.Data[i], w)
		}
	}
}

// FuzzEdgeAttend pins the inference-only GATv2 ops to the differentiable
// composition training runs, bit for bit: MatMulRows to MatMul over a
// Gather, MatMulRowsAddRow to MatMulAddRow over a Gather, and EdgeAttend
// to Gather → AddLeakyReLU → MatMul → SegmentSoftmax → SegmentSumMulCol.
// shape picks the sizes: the source and destination tables, the input
// width, the projected width (up to 40, so the AVX2 row kernel runs full
// 32-column panels and every narrower last panel, 16 and 24 columns
// among them), the number of edges (zero included) and of output rows,
// some of which receive no edge. Row lists and edge endpoints repeat
// freely. The values cover NaN payloads, ±0,
// ±Inf and subnormals; half the cases also draw the LeakyReLU slope, and
// half zero the first row of both tables.
func FuzzEdgeAttend(f *testing.F) {
	for s := uint32(0); s < 32; s++ {
		f.Add(int64(s), s*0x9e3779b9, []byte(nil))
	}
	// An empty edge list, and one edge with every drawn value a NaN of
	// its own payload.
	f.Add(int64(1), uint32(0), []byte(nil))
	var nans []byte
	for i := uint64(1); i <= 160; i++ {
		nans = binary.LittleEndian.AppendUint64(nans, 0x7ff8_0000_0000_0000|i<<8|i)
	}
	f.Add(int64(2), uint32(1<<14|3<<9), nans)
	f.Fuzz(func(t *testing.T, seed int64, shape uint32, raw []byte) {
		in := &fuzzValues{raw: raw, rng: rand.New(rand.NewSource(seed))}
		nSrc, nDst := 1+int(shape%5), 1+int(shape>>3%5)
		kin, w := 1+int(shape>>6%7), 1+int(shape>>9%40)
		nEdge := int(shape >> 14 % 12)
		nOut := 1 + int(shape>>18%6)
		slope := 0.2
		if shape>>21&1 == 1 {
			slope = in.next()
		}
		x, y := in.mat(nSrc, kin), in.mat(nDst, kin)
		if shape>>22&1 == 1 {
			// Edges between the two first rows score exactly-zero
			// activations, which the column MatMul skips: against an
			// infinite or NaN attention weight adding them would differ.
			clear(x.Row(0))
			clear(y.Row(0))
		}
		ws, wd, att, bias := in.mat(kin, w), in.mat(kin, w), in.mat(w, 1), in.mat(1, w)
		keysS := in.indices(1+in.rng.Intn(nSrc+2), nSrc)
		keysD := in.indices(1+in.rng.Intn(nDst+2), nDst)
		srcAt := in.indices(nEdge, len(keysS))
		dstAt := in.indices(nEdge, len(keysD))
		dst := in.indices(nEdge, nOut)

		ref := NewTape()
		ref.SetInference(true)
		X, Y := ref.Input(x), ref.Input(y)
		Ws, Wd, Att, B := ref.Input(ws), ref.Input(wd), ref.Input(att), ref.Input(bias)
		hsR := ref.MatMul(ref.Gather(X, keysS), Ws)
		hdR := ref.MatMul(ref.Gather(Y, keysD), Wd)
		selfR := ref.MatMulAddRow(ref.Gather(X, keysS), Ws, B)
		es := ref.Gather(hsR, srcAt)
		e := ref.MatMul(ref.AddLeakyReLU(es, ref.Gather(hdR, dstAt), slope), Att)
		outR := ref.SegmentSumMulCol(es, ref.SegmentSoftmax(e, dst, nOut), dst, nOut)

		tp := dirtyInference()
		X, Y = tp.Input(x), tp.Input(y)
		Ws, Wd, Att, B = tp.Input(ws), tp.Input(wd), tp.Input(att), tp.Input(bias)
		hs := tp.MatMulRows(X, keysS, Ws)
		hd := tp.MatMulRows(Y, keysD, Wd)
		self := tp.MatMulRowsAddRow(X, keysS, Ws, B)
		out := tp.EdgeAttend(hs, hd, Att, srcAt, dstAt, dst, nOut, slope)

		sameBits(t, "MatMulRows src", hs.Val, hsR.Val)
		sameBits(t, "MatMulRows dst", hd.Val, hdR.Val)
		sameBits(t, "MatMulRowsAddRow", self.Val, selfR.Val)
		sameBits(t, "EdgeAttend", out.Val, outR.Val)
	})
}

// TestInferenceOpsPanicOnTrainingTape pins that the inference-only ops
// refuse a recording tape, as Backward refuses an inference tape: they
// record no backward pass, so training through them would silently drop
// gradients.
func TestInferenceOpsPanicOnTrainingTape(t *testing.T) {
	tp := NewTape()
	x := tp.Input(tensor.New(2, 3))
	w := tp.Input(tensor.New(3, 3))
	att := tp.Input(tensor.New(3, 1))
	bias := tp.Input(tensor.New(1, 3))
	rows := []int{0, 1}
	for name, op := range map[string]func(){
		"MatMulRows":       func() { tp.MatMulRows(x, rows, w) },
		"MatMulRowsAddRow": func() { tp.MatMulRowsAddRow(x, rows, w, bias) },
		"EdgeAttend":       func() { tp.EdgeAttend(x, x, att, rows, rows, rows, 2, 0.2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a training tape did not panic", name)
				}
			}()
			op()
		}()
	}
}
