// Elementwise and row kernels under the matmuls and IR2Vec's vector
// helpers. Each has a portable Go body (the *Generic functions) and, on
// amd64 CPUs whose OS saves the YMM registers, an AVX2 assembly body in
// kernels_amd64.s. The choice is made once at init from CPUID; the Go
// bodies run everywhere else, under -tags purego, and serve as the
// oracle the assembly is tested against.
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
// skipped, as in the scalar i-k-j loop. With fresh set, every orow[j]
// starts at +0 instead of its current value, so orow need not be zeroed
// first; a row with no nonzero term is then written as +0. Both starts
// give the same bits as accumulating into a zeroed row. ks and vs, each
// at least len(arow) long, are scratch for the b-row offsets and values
// of the nonzero entries.
func matmulRow(orow, arow, b []float64, ks []int, vs []float64, fresh bool) {
	n := len(orow)
	b = b[:len(arow)*n]
	m := 0
	for k, av := range arow {
		if av == 0 {
			continue
		}
		ks[m], vs[m] = k*n, av
		m++
	}
	if m == 0 {
		if fresh {
			clear(orow)
		}
		return
	}
	if useAVX2 {
		// The assembly keeps each 16-column stripe of orow in registers
		// across all m terms, so orow is loaded (or, when fresh, zeroed
		// in registers) and stored once per stripe instead of once per
		// term.
		matmulRowAVX2(orow, b, ks[:m], vs[:m], fresh)
		return
	}
	matmulRowGeneric(orow, b, ks[:m], vs[:m], fresh)
}

func matmulRowGeneric(orow, b []float64, ks []int, vs []float64, fresh bool) {
	if fresh {
		clear(orow)
	}
	for i, off := range ks {
		axpyGeneric(vs[i], b[off:off+len(orow)], orow)
	}
}
