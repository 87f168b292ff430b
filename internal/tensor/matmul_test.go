package tensor

import (
	"math"
	"math/rand"
	"testing"

	"mpidetect/internal/par"
)

// refMatMul is the pre-blocking serial kernel, kept verbatim as the
// bit-exactness reference: every dispatch path (column-vector, blocked)
// must reproduce it exactly, not approximately.
func refMatMul(a, b *Mat) *Mat {
	out := New(a.R, b.C)
	for i := 0; i < a.R; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func refMatMulATB(a, b *Mat) *Mat {
	out := New(a.C, b.C)
	for k := 0; k < a.R; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func refMatMulABT(a, b *Mat) *Mat {
	out := New(a.R, b.R)
	for i := 0; i < a.R; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.R; j++ {
			brow := b.Row(j)
			s := 0.0
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
	return out
}

// sparseRandn mixes negatives and exact zeros (post-ReLU activations) so
// the zero-skip paths are exercised.
func sparseRandn(rng *rand.Rand, r, c int) *Mat {
	m := New(r, c)
	for i := range m.Data {
		switch rng.Intn(4) {
		case 0: // leave exact zero
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

func bitEqual(t *testing.T, name string, got, want *Mat) {
	t.Helper()
	if got.R != want.R || got.C != want.C {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.R, got.C, want.R, want.C)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x) (not bit-identical)", name, i,
				got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// TestMatMulBitExact drives every kernel over shapes that hit the fast
// column paths, the blocked path (k > matmulBlockK) and ragged tails, and
// requires exact equality with the reference kernels, on every kernel
// path this host runs.
func TestMatMulBitExact(t *testing.T) {
	forEachKernelPath(t, testMatMulBitExact)
}

func testMatMulBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 4}, {7, 16, 1}, {1, 9, 8},
		{65, matmulBlockK + 37, 31}, {16, 3, 300}, {300, 5, 2},
		// Larger panels, and the column-vector paths at 200, 300 and
		// 150 rows: MatMul and MatMulATB against a 300×1 b, MatMulABT
		// as the outer product of a 200×1 and a 150×1 column.
		{200, 300, 150}, {200, 300, 1}, {200, 1, 150},
	}
	for _, sh := range shapes {
		a := sparseRandn(rng, sh.m, sh.k)
		b := sparseRandn(rng, sh.k, sh.n)
		bitEqual(t, "MatMul", MatMul(a, b), refMatMul(a, b))

		at := sparseRandn(rng, sh.k, sh.m)
		bitEqual(t, "MatMulATB", MatMulATB(at, b), refMatMulATB(at, b))

		bt := sparseRandn(rng, sh.n, sh.k)
		bitEqual(t, "MatMulABT", MatMulABT(a, bt), refMatMulABT(a, bt))
	}
}

// TestMatMulParallelBitExact runs the serial kernels from concurrent
// callers, the way par.Map workers and the serve pool use them, on the
// larger panels and column-vector shapes: every call owns its output and
// shares no kernel state, so each concurrent result must stay
// bit-identical to the serial reference.
func TestMatMulParallelBitExact(t *testing.T) {
	forEachKernelPath(t, testMatMulParallelBitExact)
}

func testMatMulParallelBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := sparseRandn(rng, 200, 300)
	b := sparseRandn(rng, 300, 150)
	at := sparseRandn(rng, 300, 200)
	bt := sparseRandn(rng, 150, 300)
	col := sparseRandn(rng, 300, 1)
	acol := sparseRandn(rng, 200, 1)
	bcol := sparseRandn(rng, 150, 1)
	cases := []struct {
		name      string
		got, want func() *Mat
	}{
		{"MatMul", func() *Mat { return MatMul(a, b) }, func() *Mat { return refMatMul(a, b) }},
		{"MatMulATB", func() *Mat { return MatMulATB(at, b) }, func() *Mat { return refMatMulATB(at, b) }},
		{"MatMulABT", func() *Mat { return MatMulABT(a, bt) }, func() *Mat { return refMatMulABT(a, bt) }},
		{"MatMul(col)", func() *Mat { return MatMul(a, col) }, func() *Mat { return refMatMul(a, col) }},
		{"MatMulATB(col)", func() *Mat { return MatMulATB(at, col) }, func() *Mat { return refMatMulATB(at, col) }},
		{"MatMulABT(col)", func() *Mat { return MatMulABT(acol, bcol) }, func() *Mat { return refMatMulABT(acol, bcol) }},
	}
	const callers = 4
	got := make([]*Mat, callers*len(cases))
	par.Map(len(got), func(i int) { got[i] = cases[i%len(cases)].got() })
	for j, c := range cases {
		want := c.want()
		for i := j; i < len(got); i += len(cases) {
			bitEqual(t, c.name, got[i], want)
		}
	}
}

// TestMatMulABTAddIntoAccumulates checks the fused accumulate matches the
// two-step temporary + AddInPlace it replaces.
func TestMatMulABTAddIntoAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := sparseRandn(rng, 20, 30)
	b := sparseRandn(rng, 25, 30)
	acc := sparseRandn(rng, 20, 25)
	want := acc.Clone()
	AddInPlace(want, refMatMulABT(a, b))
	MatMulABTAddInto(acc, a, b)
	bitEqual(t, "MatMulABTAddInto", acc, want)
}

func benchPair(n int) (*Mat, *Mat) {
	rng := rand.New(rand.NewSource(7))
	return sparseRandn(rng, n, n), sparseRandn(rng, n, n)
}

// BenchmarkMatMulLarge measures the blocked kernel on a cache-overflowing
// 512×512 square matmul, a shape larger than any the GNN runs.
func BenchmarkMatMulLarge(b *testing.B) {
	x, y := benchPair(512)
	out := New(512, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Zero()
		MatMulInto(out, x, y)
	}
}
