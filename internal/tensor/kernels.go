// Elementwise and row kernels under the matmuls, the GNN's attention and
// activation, and IR2Vec's vector helpers. Each has a portable Go body
// (the *Generic functions) and, on amd64 CPUs with AVX2 and FMA whose OS
// saves the YMM registers, an AVX2 assembly body in kernels_amd64.s. The
// choice is made once at init from CPUID; the Go bodies run everywhere
// else, under -tags purego, and serve as the oracle the assembly is
// tested against.
//
// The matmul row kernel is register-blocked (Goto and van de Geijn,
// "Anatomy of High-Performance Matrix Multiplication"): the assembly
// holds a panel of up to 32 output columns in eight YMM accumulators,
// walks the a row once, tests each a[k] for zero itself and applies
// every nonzero term to the whole panel, so each a[k] is read once per
// panel and each output element is loaded and stored once.
//
// EdgeScores is the GATv2 attention score (Brody, Alon and Yahav, "How
// Attentive are Graph Attention Networks?", ICLR 2022) of four edges at
// a time, one per lane, with the LeakyReLU and the zero skip done by
// compare-and-blend instead of branches on each activation's sign.
// VecExp and VecELU run math.Exp four lanes at a time: the assembly
// transcribes the table-free FMA path math.Exp takes on every CPU with
// AVX and FMA (Shibata, "Efficient evaluation methods of elementary
// functions suitable for SIMD computation", ISC 2010), and leaves a
// group of four with a non-finite lane, or a result that overflows or
// is subnormal or zero, to math.Exp itself. Where GODEBUG turns
// math.Exp's FMA path off, they keep the scalar loop (expOnAVX2).
//
// The assembly is bit-identical to the Go loops. Every output element
// still gets one rounded multiply and one rounded add per term (VMULPD
// then VADDPD, never FMA outside the exp), in the same order, from the
// same start value. The operands also keep the order the Go compiler
// emits for the scalar loops, because when both operands of an x86
// arithmetic instruction are NaN the first source's payload wins: for
// x·a the x element is the first source, for product + y the product
// is, and for dst + src dst is. In an edge score xs is first in xs+xd,
// the activation v in slope·v and v·a[k], and the sum s in s + term;
// in the ELU the exponential is first in exp(v) - 1. (That is the
// normal build's code. The instrumented builds of the race detector and
// of fuzzing order some of these operands differently, so the scalar
// loops the edge scores are checked against, edgeScoresGeneric and the
// column matmul, recompute a score that comes out NaN with the orders
// pinned: see dotNaN.)
//
// The Go wrappers reslice their arguments before entering assembly, so a
// slice too short for the operation panics in Go instead of reading or
// writing out of bounds.
package tensor

import "math"

// useAVX2 selects the assembly kernels. It is set once from the CPU at
// init; tests flip it to run both paths.
var useAVX2 = cpuHasAVX2()

// expOnAVX2 lets VecExp and VecELU run their assembly. It gives
// math.Exp's bits only where math.Exp takes its FMA path: on every CPU
// with AVX and FMA, unless GODEBUG turns FMA off (cpu.fma=off). So it is
// set once at init by checking the kernel against math.Exp on four
// inputs whose FMA and plain results differ.
var expOnAVX2 = useAVX2 && expMatchesMath()

func expMatchesMath() bool {
	probe := []float64{-0.09375, -0.109375, -0.1875, -0.21875}
	got := append([]float64(nil), probe...)
	if expAVX2(got) != len(got) {
		return false
	}
	for i, x := range probe {
		if got[i] != math.Exp(x) {
			return false
		}
	}
	return true
}

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

// EdgeScores writes to score[i], for every i < len(score), the GATv2
// attention score of the edge from row srcAt[i] of hs to row dstAt[i] of
// hd: the sum from +0, over ascending k, of lrelu(hs[src,k] + hd[dst,k])
// times a[k], where lrelu(v) is slope·v for v < 0 and v otherwise, and
// exactly-zero activations are skipped (as the column matmul skips zero
// terms, so a zero activation against an infinite or NaN a[k] adds
// nothing). hs and hd must have the same width, and a at least as many
// entries.
func EdgeScores(score []float64, hs, hd *Mat, srcAt, dstAt []int, a []float64, slope float64) {
	w := hs.C
	if hd.C != w {
		panic("tensor: EdgeScores width mismatch")
	}
	a = a[:w:len(a)]
	srcAt, dstAt = srcAt[:len(score):len(srcAt)], dstAt[:len(score):len(dstAt)]
	n := 0
	if useAVX2 && w > 0 {
		// The assembly scores four edges at a time and reads rows by
		// index, so every index it will read is checked here.
		n = len(score) &^ 3
		for i, r := range srcAt[:n] {
			if uint(r) >= uint(hs.R) || uint(dstAt[i]) >= uint(hd.R) {
				panic("tensor: EdgeScores row index out of range")
			}
		}
		edgeScoresAVX2(score[:n], hs.Data[:hs.R*w:len(hs.Data)], hd.Data[:hd.R*w:len(hd.Data)], w, srcAt, dstAt, a, slope)
	}
	edgeScoresGeneric(score[n:], hs, hd, srcAt[n:], dstAt[n:], a, slope)
}

func edgeScoresGeneric(score []float64, hs, hd *Mat, srcAt, dstAt []int, a []float64, slope float64) {
	for i, r := range srcAt[:len(score)] {
		xs := hs.Row(r)
		xd := hd.Row(dstAt[i])[:len(xs)]
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
		if s != s {
			s = edgeScoreNaN(xs, xd, ak, slope)
		}
		score[i] = s
	}
}

// edgeScoreNaN recomputes an edge score that came out NaN with the
// assembly's operand orders (xs first in xs+xd, then as dotNaN), which
// the compiler does not keep in every build.
func edgeScoreNaN(xs, xd, a []float64, slope float64) float64 {
	s := 0.0
	for k, x := range xs {
		var v float64
		switch y := xd[k]; {
		case x != x:
			v = quiet(x)
		case y != y:
			v = quiet(y)
		default:
			v = x + y
		}
		if v < 0 {
			v = slope * v // v is not NaN, so at most one operand is
		}
		switch {
		case v == 0:
		case v != v:
			return quiet(v)
		default:
			if s += v * a[k]; s != s {
				return s
			}
		}
	}
	return s
}

// VecExp sets v[i] = math.Exp(v[i]), bit for bit.
func VecExp(v []float64) { expGroups(v, expAVX2, expGeneric) }

func expGeneric(v []float64) {
	for i, x := range v {
		v[i] = math.Exp(x)
	}
}

// VecELU applies the ELU activation in place: v[i] = math.Exp(v[i]) - 1
// where v[i] < 0, bit for bit; every other entry, NaN included, keeps
// its value.
func VecELU(v []float64) { expGroups(v, eluAVX2, eluGeneric) }

func eluGeneric(v []float64) {
	for i, x := range v {
		if x < 0 {
			v[i] = math.Exp(x) - 1
		}
	}
}

// expGroups runs an exp kernel over v: the assembly asm where
// expOnAVX2 allows it, and its scalar twin generic on the group of four
// asm stopped at because it cannot do it exactly, and on the last
// entries that make no whole group.
func expGroups(v []float64, asm func([]float64) int, generic func([]float64)) {
	for useAVX2 && expOnAVX2 && len(v) >= 4 {
		v = v[asm(v):]
		g := v[:min(len(v), 4)]
		generic(g)
		v = v[len(g):]
	}
	generic(v)
}
