// Dense matmul kernels. Three layouts cover the autodiff engine's forward
// and backward passes without materialising transposes: a@b, aᵀ@b and
// a@bᵀ. Each has an Into variant writing a caller-provided output (the
// tape arena's reuse path), a column-vector fast path (the GATv2 attention
// score and its backward are E×1 shapes where generic row indexing costs
// more than the arithmetic), and k-blocked tiling for panels that overflow
// cache. The kernels are serial: callers that want more cores run whole
// programs or samples side by side (the serve workers, par.Map).
//
// Every variant preserves the reference kernels' exact floating-point
// behaviour: each output element accumulates its k-terms in ascending
// order from +0, with the same zero-skip tests, so blocking changes no
// bit. The AVX2 kernels (kernels.go) keep that contract: a@b runs one
// row-kernel call per output row and k-tile, which keeps panels of up to
// 32 output columns in registers and skips zero a[i,k] itself, with one
// rounded multiply and one rounded add per term, never FMA, and every
// VEX operand in the order the compiler emits for the scalar loops (x·a,
// then product + accumulator). A matmul therefore gives the same bits on
// every host and kernel path, and so does GNN training:
// gnn.Config.Workers, which groups the per-sample gradients before they
// are summed, is a fixed part of the configuration (2 by default), never
// the host's core count.
package tensor

import (
	"fmt"
	"math"
)

// matmulBlockK is the k-tile: one tile of b (matmulBlockK rows) stays
// resident in cache while a streams past it.
const matmulBlockK = 256

// dotSeq computes the dot product with ONE sequential accumulator (s
// grows strictly in k order, exactly like the plain loop — multi-
// accumulator unrolling would reorder the sum and change bits). Only the
// loop bookkeeping is unrolled.
func dotSeq(x, y []float64) float64 {
	y = y[:len(x)]
	s := 0.0
	j := 0
	for ; j+4 <= len(x); j += 4 {
		s += x[j] * y[j]
		s += x[j+1] * y[j+1]
		s += x[j+2] * y[j+2]
		s += x[j+3] * y[j+3]
	}
	for ; j < len(x); j++ {
		s += x[j] * y[j]
	}
	return s
}

// MatMulInto computes a @ b into out, which must be R×C shaped. Every
// element of out is overwritten, so out need not be zeroed.
func MatMulInto(out, a, b *Mat) {
	if out.R != a.R {
		panic(fmt.Sprintf("tensor: matmul into %dx%d, want %dx%d", out.R, out.C, a.R, b.C))
	}
	matmulRows(out, a, nil, b)
}

// MatMulRowsInto computes a.Row(rows[i]) @ b into row i of out, which
// must be len(rows)×b.C shaped; rows may repeat and skip rows of a. Each
// output row equals the matching row of MatMulInto(a, b) bit for bit (an
// output row depends only on its own input row), and every element of
// out is overwritten, so out need not be zeroed.
func MatMulRowsInto(out, a *Mat, rows []int, b *Mat) {
	if out.R != len(rows) {
		panic(fmt.Sprintf("tensor: matmul rows into %dx%d, want %dx%d", out.R, out.C, len(rows), b.C))
	}
	matmulRows(out, a, rows, b)
}

// matmulRows writes into out row i the product of a's row rows[i] (row i
// when rows is nil) with b.
func matmulRows(out, a *Mat, rows []int, b *Mat) {
	if a.C != b.R {
		panic(fmt.Sprintf("tensor: matmul %dx%d @ %dx%d", a.R, a.C, b.R, b.C))
	}
	if out.C != b.C {
		panic(fmt.Sprintf("tensor: matmul into %dx%d, want %dx%d", out.R, out.C, out.R, b.C))
	}
	arow := func(i int) []float64 {
		if rows != nil {
			return a.Row(rows[i])
		}
		return a.Row(i)
	}
	if b.C == 1 {
		// Column-vector product: a dot per output row, b.Data contiguous.
		bcol := b.Data[:a.C]
		for i := range out.Data[:out.R] {
			s := 0.0
			for k, av := range arow(i) {
				if av == 0 {
					continue
				}
				s += av * bcol[k]
			}
			if s != s {
				s = dotNaN(arow(i), bcol)
			}
			out.Data[i] = s
		}
		return
	}
	if a.C == 0 {
		clear(out.Data)
		return
	}
	// k-blocked i-k-j: each tile of b stays cache-resident while the a
	// rows stream past it. k still ascends per output element, so
	// blocking does not reorder any accumulation. The first tile starts
	// every output element at +0, the later tiles add to it.
	for k0 := 0; k0 < a.C; k0 += matmulBlockK {
		k1 := min(k0+matmulBlockK, a.C)
		bblk := b.Data[k0*b.C : k1*b.C]
		for i := 0; i < out.R; i++ {
			matmulRow(out.Row(i), arow(i)[k0:k1], bblk, k0 == 0)
		}
	}
}

// dotNaN recomputes a column product whose sum came out NaN, giving it
// the payload of the operand orders the normal build's code and the
// assembly edge scores (EdgeScores) keep: av first in av·b, the sum
// first in s + product. When both operands of an x86 add or multiply
// are NaN the first source's payload wins, and the compiler may order
// them either way (the instrumented builds of fuzzing and the race
// detector put b and the product first), so the loop above leaves a NaN
// sum to this one, which no operand order can change. Once s is NaN,
// s + product keeps it, so the first NaN term decides. It is kept out of
// line so the hot loop compiles as it would without it.
//
//go:noinline
func dotNaN(a, b []float64) float64 {
	s := 0.0
	for k, av := range a {
		switch {
		case av == 0:
		case av != av:
			return quiet(av) // s is not NaN, so s + av·b is av·b
		default:
			// One operand at most is NaN in av·b and in s + av·b.
			if s += av * b[k]; s != s {
				return s
			}
		}
	}
	return s
}

// quiet returns the NaN x with its quiet bit set, as an x86 arithmetic
// instruction returns a NaN operand.
func quiet(x float64) float64 {
	return math.Float64frombits(math.Float64bits(x) | 1<<51)
}

// MatMulATBInto computes aᵀ @ b into out, which must be zeroed and
// a.C×b.C shaped. Output rows are columns of a; the k dimension is the
// shared row count.
func MatMulATBInto(out, a, b *Mat) {
	if a.R != b.R {
		panic(fmt.Sprintf("tensor: matmulATB %dx%d, %dx%d", a.R, a.C, b.R, b.C))
	}
	if out.R != a.C || out.C != b.C {
		panic(fmt.Sprintf("tensor: matmulATB into %dx%d, want %dx%d", out.R, out.C, a.C, b.C))
	}
	if b.C == 1 {
		// Columns of a against one b column: out is a.C×1.
		bcol := b.Data
		for k := 0; k < a.R; k++ {
			bv := bcol[k]
			for i, av := range a.Row(k) {
				if av == 0 {
					continue
				}
				out.Data[i] += av * bv
			}
		}
		return
	}
	for k := 0; k < a.R; k++ {
		brow := b.Row(k)
		if allZero(brow) {
			// ±0-only contributions; skipping is bit-neutral (see
			// allZero) and backward passes hit many zero grad rows.
			continue
		}
		for i, av := range a.Row(k) {
			if av == 0 {
				continue
			}
			axpy(av, brow, out.Row(i)[:len(brow)])
		}
	}
}

// MatMulABTAddInto accumulates a @ bᵀ into out (a.R×b.R). Each element is
// one dot product summed from +0 and then added to out in a single
// operation, exactly like computing a @ bᵀ into a zeroed temporary and
// AddInPlace-ing it — which lets backward passes fuse the two without
// changing a bit of the result.
func MatMulABTAddInto(out, a, b *Mat) {
	if a.C != b.C {
		panic(fmt.Sprintf("tensor: matmulABT %dx%d, %dx%d", a.R, a.C, b.R, b.C))
	}
	if out.R != a.R || out.C != b.R {
		panic(fmt.Sprintf("tensor: matmulABT into %dx%d, want %dx%d", out.R, out.C, a.R, b.R))
	}
	if a.C == 1 {
		// Outer product of two columns; keep the explicit +0 start so a
		// -0 product lands as +0, matching the generic dot loop.
		bcol := b.Data
		for i, av := range a.Data[:a.R] {
			orow := out.Row(i)
			for j, bv := range bcol {
				s := 0.0
				s += av * bv
				orow[j] += s
			}
		}
		return
	}
	// Hoist b's row slices out of the (i, j) loop: the backward pass
	// calls this kernel with small b (a weight matrix), so the row
	// slicing would otherwise dominate the short dots.
	var browStack [64][]float64
	var brows [][]float64
	if b.R <= len(browStack) {
		brows = browStack[:b.R]
	} else {
		brows = make([][]float64, b.R)
	}
	for j := range brows {
		brows[j] = b.Row(j)
	}
	for i := 0; i < a.R; i++ {
		arow := a.Row(i)
		if allZero(arow) {
			// A zero row contributes dots that are exactly +0 (every
			// product is ±0, summed from +0), and adding +0 never
			// changes an accumulator — skipping is bit-neutral.
			continue
		}
		orow := out.Row(i)[:b.R]
		for j := range orow {
			orow[j] += dotSeq(arow, brows[j])
		}
	}
}

// allZero reports whether every element of v is zero (either sign). Used
// to skip gradient rows: backward passes see many exactly-zero rows (max
// pooling routes gradient to argmax rows only), and a zero operand row
// contributes only ±0 terms, which can never change an accumulator that
// started at +0. Caveat: the equivalence assumes the other operand is
// finite — against an Inf/NaN weight the unskipped kernel would produce
// NaN (0·Inf) where the skip yields 0. That only differs once training
// has already diverged to non-finite parameters.
func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}
