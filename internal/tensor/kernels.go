// Elementwise and row kernels under the matmuls and IR2Vec's vector
// helpers. Each has a portable Go body (the *Generic functions) and, on
// amd64 CPUs whose OS saves the YMM registers, an AVX2 assembly body in
// kernels_amd64.s. The choice is made once at init from CPUID; the Go
// bodies run everywhere else, under -tags purego, and serve as the
// oracle the assembly is tested against.
//
// The matmul row kernel is register-blocked (Goto and van de Geijn,
// "Anatomy of High-Performance Matrix Multiplication"): the assembly
// holds a panel of up to 32 output columns in eight YMM accumulators,
// walks the a row once, tests each a[k] for zero itself and applies
// every nonzero term to the whole panel, so each a[k] is read once per
// panel and each output element is loaded and stored once.
//
// The assembly is bit-identical to the Go loops. Every output element
// still gets one rounded multiply and one rounded add per term (VMULPD
// then VADDPD, never FMA), in the same order, from the same start value.
// The operands also keep the order the Go compiler emits for the scalar
// loops, because when both operands of an x86 arithmetic instruction are
// NaN the first source's payload wins: for x·a the x element is the first
// source, for product + y the product is, and for dst + src dst is.
// (That is the normal build's code; the race detector's instrumented
// build orders some of these operands differently.)
//
// The Go wrappers reslice their arguments before entering assembly, so a
// slice too short for the operation panics in Go instead of reading or
// writing out of bounds.
package tensor

// useAVX2 selects the assembly kernels. It is set once from the CPU at
// init; tests flip it to run both paths.
var useAVX2 = cpuHasAVX2()

// axpy computes y[j] += a*x[j]. x must not partially overlap y.
func axpy(a float64, x, y []float64) {
	x = x[:len(y)]
	if useAVX2 {
		axpyAVX2(a, x, y)
		return
	}
	axpyGeneric(a, x, y)
}

// axpyGeneric is axpy's portable body, 4-way unrolled. Every y element
// keeps its single accumulator and one product, so the result is
// bit-identical to the plain loop — elements are independent; only loop
// bookkeeping is amortised.
func axpyGeneric(a float64, x, y []float64) {
	x = x[:len(y)]
	j := 0
	for ; j+4 <= len(y); j += 4 {
		y[j] += a * x[j]
		y[j+1] += a * x[j+1]
		y[j+2] += a * x[j+2]
		y[j+3] += a * x[j+3]
	}
	for ; j < len(y); j++ {
		y[j] += a * x[j]
	}
}

// vecAddGeneric is VecAdd's portable body.
func vecAddGeneric(dst, src []float64) {
	for i := range src {
		dst[i] += src[i]
	}
}

// matmulRow computes arow @ b into orow, where b holds len(arow) rows of
// len(orow) columns, row-major: for each nonzero arow[k] in ascending k,
// orow[j] += arow[k]*b[k,j]. Exactly-zero entries of either sign are
// skipped, as in the scalar i-k-j loop; NaN entries are not. With fresh
// set, every orow[j] starts at +0 instead of its current value, so orow
// need not be zeroed first; a row with no nonzero term is then written as
// +0. Both starts give the same bits as accumulating into a zeroed row.
func matmulRow(orow, arow, b []float64, fresh bool) {
	b = b[: len(arow)*len(orow) : len(b)]
	if useAVX2 && len(arow) > 0 && len(orow) > 0 {
		// The assembly needs at least one term and one column.
		matmulRowAVX2(orow, arow, b, fresh)
		return
	}
	matmulRowGeneric(orow, arow, b, fresh)
}

func matmulRowGeneric(orow, arow, b []float64, fresh bool) {
	if fresh {
		clear(orow)
	}
	n := len(orow)
	for k, av := range arow {
		if av == 0 {
			continue
		}
		axpyGeneric(av, b[k*n:(k+1)*n], orow)
	}
}
