package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// kernelPath is one kernel implementation a test can select.
type kernelPath struct {
	name string
	avx2 bool
}

// kernelPaths lists the paths this host can run: the generic Go kernels
// always, the AVX2 assembly when the CPU supports it.
func kernelPaths() []kernelPath {
	paths := []kernelPath{{"generic", false}}
	if cpuHasAVX2() {
		paths = append(paths, kernelPath{"avx2", true})
	}
	return paths
}

// withKernels runs f with the AVX2 kernels on or off, restoring the
// selection afterwards.
func withKernels(avx2 bool, f func()) {
	old := useAVX2
	useAVX2 = avx2
	defer func() { useAVX2 = old }()
	f()
}

// forEachKernelPath runs f as one subtest per kernel path.
func forEachKernelPath(t *testing.T, f func(t *testing.T)) {
	for _, p := range kernelPaths() {
		t.Run(p.name, func(t *testing.T) { withKernels(p.avx2, func() { f(t) }) })
	}
}

// kernelSpecials are values whose bits the assembly must reproduce: both
// zeros (the zero-skip), both infinities (0·Inf and Inf−Inf make NaN),
// NaNs of distinct signs and payloads (which operand's payload survives
// depends on operand order), subnormals and the overflow edge.
var kernelSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.NaN(),
	math.Float64frombits(0xfff8_0000_dead_beef), // quiet, negative, payload
	math.Float64frombits(0x7ff0_0000_0000_0bad), // signalling
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000f_ffff_ffff_ffff), // largest subnormal
	math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// kernelInput draws the values of one fuzz case. The fuzzer sets the
// bits of the first values directly through raw, eight bytes each; rng
// draws the rest: a quarter specials, a quarter signed zeros, and the
// rest normals scaled across the whole exponent range, so sums and
// products overflow and underflow.
type kernelInput struct {
	raw []byte
	rng *rand.Rand
}

func (in *kernelInput) next() float64 {
	if len(in.raw) >= 8 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(in.raw))
		in.raw = in.raw[8:]
		return v
	}
	switch in.rng.Intn(4) {
	case 0:
		return kernelSpecials[in.rng.Intn(len(kernelSpecials))]
	case 1:
		return math.Copysign(0, in.rng.NormFloat64())
	default:
		return math.Ldexp(in.rng.NormFloat64(), in.rng.Intn(1300)-650)
	}
}

// slice returns n drawn values starting off elements into a fresh
// backing array, so the kernels see sub-slices at every alignment.
func (in *kernelInput) slice(n, off int) []float64 {
	s := make([]float64, off+n)[off:]
	for i := range s {
		s[i] = in.next()
	}
	return s
}

// bothPaths runs op on two copies of dst (at the same alignment), one
// under the generic kernels and one under AVX2, and fails unless the
// copies end bit-identical. Under the race detector two NaNs count as
// equal whatever their payloads (see raceBuild); every other bit must
// still match.
func bothPaths(t *testing.T, name string, dst []float64, off int, op func(dst []float64)) {
	t.Helper()
	want := append(make([]float64, off, off+len(dst)), dst...)[off:]
	got := append(make([]float64, off, off+len(dst)), dst...)[off:]
	withKernels(false, func() { op(want) })
	withKernels(true, func() { op(got) })
	for i := range want {
		if raceBuild && math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if g, w := math.Float64bits(got[i]), math.Float64bits(want[i]); g != w {
			t.Fatalf("%s: element %d of %d: avx2 %v (%#x), generic %v (%#x)",
				name, i, len(want), got[i], g, want[i], w)
		}
	}
}

// FuzzVecKernels checks each assembly kernel bit for bit against its
// generic twin: axpy (also behind VecAddScaled), VecAdd, and the matmul
// row kernel in both starts, accumulating into orow and zero-start
// (fresh). n%68 is the vector length and the matmul's column count
// (full 32-column panels, then a last panel of four-column accumulators
// whose last one is masked when the count is not a multiple of four),
// off%4 the misalignment of every slice, and 1+k%320 the matmul's inner
// dimension, which crosses matmulBlockK. The matmul's three a-rows are
// all zeros, dense and mixed. The row kernel is checked directly in both
// starts over drawn (not zeroed) output rows, and through MatMulInto and
// MatMulRowsInto, whose output starts drawn too: both must overwrite it.
// VecExp and VecELU run over n%68 values, half of them spread across
// math.Exp's normal, subnormal and overflow ranges (expSlice), and
// EdgeScores over 1+k%12 edges of width 1+n%40.
func FuzzVecKernels(f *testing.F) {
	if !cpuHasAVX2() {
		f.Skip("no AVX2 kernels on this host")
	}
	for n := 0; n < 68; n++ {
		f.Add(int64(n), uint8(n), uint8(n%4), uint16(5*n), []byte(nil))
	}
	// Both operands of every multiply and add NaN, each with its own
	// payload (five payloads cycle, so for these lengths no two operands
	// of one operation share one): only the compiler's operand order
	// reproduces the result.
	var nans []byte
	for _, bits := range []uint64{0x7ff8_0000_0000_0001, 0xfff8_0000_0000_0002, 0x7ff8_0000_0000_0003, 0x7ff0_0000_0000_0004, 0xfff0_0000_0000_0005} {
		nans = binary.LittleEndian.AppendUint64(nans, bits)
	}
	for _, n := range []uint8{1, 4, 16} {
		raw := nans
		for len(raw) < 8*(1+3*int(n)) {
			raw = append(raw, nans...)
		}
		f.Add(int64(n), n, uint8(0), uint16(3), raw)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, off uint8, k uint16, raw []byte) {
		in := &kernelInput{raw: raw, rng: rand.New(rand.NewSource(seed))}
		cols, o := int(n)%68, int(off)%4

		a := in.next()
		x := in.slice(cols, o)
		bothPaths(t, "axpy", in.slice(cols, o), o, func(y []float64) { axpy(a, x, y) })
		bothPaths(t, "VecAdd", in.slice(cols, o), o, func(dst []float64) { VecAdd(dst, x) })
		bothPaths(t, "VecAddScaled", in.slice(cols, o), o, func(dst []float64) { VecAddScaled(dst, a, x) })

		const rows = 3
		kdim := 1 + int(k)%(matmulBlockK+64)
		am := FromSlice(rows, kdim, in.slice(rows*kdim, o))
		for j, v := range am.Row(0) {
			am.Row(0)[j] = math.Copysign(0, v)
		}
		for j, v := range am.Row(1) {
			if v == 0 {
				am.Row(1)[j] = 1
			}
		}
		bm := FromSlice(kdim, cols, in.slice(kdim*cols, o))
		bothPaths(t, "MatMulInto", in.slice(rows*cols, o), o, func(out []float64) {
			MatMulInto(FromSlice(rows, cols, out), am, bm)
		})
		pick := []int{2, 0, 2, 1}
		bothPaths(t, "MatMulRowsInto", in.slice(len(pick)*cols, o), o, func(out []float64) {
			MatMulRowsInto(FromSlice(len(pick), cols, out), am, pick, bm)
		})
		for r := 0; r < rows; r++ {
			for _, fresh := range []bool{false, true} {
				bothPaths(t, fmt.Sprintf("matmulRow/row%d/fresh=%v", r, fresh), in.slice(cols, o), o, func(orow []float64) {
					matmulRow(orow, am.Row(r), bm.Data, fresh)
				})
			}
		}

		bothPaths(t, "VecExp", in.expSlice(cols, o), o, VecExp)
		bothPaths(t, "VecELU", in.expSlice(cols, o), o, VecELU)

		// EdgeScores over 1 + k%12 edges (whole groups of four and a
		// tail) between three source and three destination rows of
		// width 1 + n%40. Row 0 of both tables is cleared, so the edges
		// joining them score exactly-zero activations, which must add
		// nothing even against an infinite or NaN a[k].
		w := 1 + int(n)%40
		hs := FromSlice(3, w, in.slice(3*w, o))
		hd := FromSlice(3, w, in.slice(3*w, o))
		clear(hs.Row(0))
		clear(hd.Row(0))
		av := in.slice(w, o)
		slope := 0.2
		if k&1 == 1 {
			slope = in.next()
		}
		nEdge := 1 + int(k)%12
		srcAt, dstAt := make([]int, nEdge), make([]int, nEdge)
		for i := range srcAt {
			srcAt[i], dstAt[i] = in.rng.Intn(3), in.rng.Intn(3)
		}
		bothPaths(t, fmt.Sprintf("EdgeScores/w=%d", w), make([]float64, nEdge), o, func(score []float64) {
			EdgeScores(score, hs, hd, srcAt, dstAt, av, slope)
		})
	})
}

// expSlice is slice for the exp kernels: half its values are drawn like
// slice's, the other half spread uniformly over [-760, 720], where
// math.Exp's normal path, its subnormal results and its overflow lie.
func (in *kernelInput) expSlice(n, off int) []float64 {
	s := make([]float64, off+n)[off:]
	for i := range s {
		if len(in.raw) < 8 && in.rng.Intn(2) == 0 {
			s[i] = -760 + 1480*in.rng.Float64()
		} else {
			s[i] = in.next()
		}
	}
	return s
}

// TestMatMulKernelWidths diffs the AVX2 matmul row kernel against the
// generic one at every panel shape: each column count from 1 to 70 (one
// or more full 32-column panels, then every last-panel width, masked or
// not) against inner dimensions on both sides of the accumulator and
// panel widths and of matmulBlockK. The a-rows are all ±0 (every term
// skipped), dense, and mixed, where zeros of both signs sit among
// normals, ±Inf and NaNs with distinct payloads; b mixes the same
// specials into normals, so both operands of a multiply can be NaN.
// Each row kernel start is checked directly over drawn output rows, and
// MatMulInto and MatMulRowsInto must overwrite theirs.
func TestMatMulKernelWidths(t *testing.T) {
	if !cpuHasAVX2() {
		t.Skip("no AVX2 kernels on this host")
	}
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8_0000_0000_0011),
		math.Float64frombits(0xfff8_0000_0000_0022),
		math.Float64frombits(0x7ff0_0000_0000_0033),
	}
	for _, kdim := range []int{1, 15, 16, 24, 32, 256, 257, 300} {
		for cols := 1; cols <= 70; cols++ {
			rng := rand.New(rand.NewSource(int64(kdim*100 + cols)))
			draw := func(n, specialEvery int) []float64 {
				v := make([]float64, n)
				for i := range v {
					if rng.Intn(specialEvery) == 0 {
						v[i] = specials[rng.Intn(len(specials))]
					} else {
						v[i] = rng.NormFloat64()
					}
				}
				return v
			}
			am := FromSlice(3, kdim, draw(3*kdim, 3))
			for j := range am.Row(0) {
				am.Row(0)[j] = math.Copysign(0, rng.NormFloat64())
			}
			for j := range am.Row(1) {
				am.Row(1)[j] = rng.NormFloat64()
			}
			bm := FromSlice(kdim, cols, draw(kdim*cols, 16))
			name := fmt.Sprintf("k=%d/cols=%d", kdim, cols)
			bothPaths(t, name+"/MatMulInto", draw(3*cols, 4), 0, func(out []float64) {
				MatMulInto(FromSlice(3, cols, out), am, bm)
			})
			pick := []int{2, 0, 1, 2}
			bothPaths(t, name+"/MatMulRowsInto", draw(len(pick)*cols, 4), 0, func(out []float64) {
				MatMulRowsInto(FromSlice(len(pick), cols, out), am, pick, bm)
			})
			for r := 0; r < 3; r++ {
				for _, fresh := range []bool{false, true} {
					bothPaths(t, fmt.Sprintf("%s/matmulRow/row%d/fresh=%v", name, r, fresh), draw(cols, 4), 0, func(orow []float64) {
						matmulRow(orow, am.Row(r), bm.Data, fresh)
					})
				}
			}
		}
	}
}

// TestEdgeScoresBitExact diffs the AVX2 edge-score kernel against the
// generic loop at every width from 1 to 40 (whole four-column blocks and
// every masked last block), over 39 edges (whole groups of four edges
// and a tail) that join every source row to every destination row. Row
// 0 of both tables is zero and row 2 of hd is the negation of row 2 of
// hs, so those edges score activations that are exactly zero, +0 by
// cancellation included, against attention weights that are half
// specials (±Inf and NaNs among them): the skip must add nothing. Row 1
// of both tables holds NaNs with a payload per entry, so the add, the
// product with a NaN weight and the sum see two NaNs, and the other rows
// mix the specials into normals. Each width runs under every slope below, NaN included.
func TestEdgeScoresBitExact(t *testing.T) {
	if !cpuHasAVX2() {
		t.Skip("no AVX2 kernels on this host")
	}
	specials := append([]float64{
		math.Float64frombits(0x7ff8_0000_0000_0011),
		math.Float64frombits(0xfff8_0000_0000_0022),
		math.Float64frombits(0x7ff0_0000_0000_0033),
	}, kernelSpecials...)
	slopes := []float64{
		0.2, 0, math.Copysign(0, -1), -1, math.Inf(1), math.MaxFloat64,
		math.Float64frombits(0xfff8_0000_0000_0044),
	}
	const rows = 6
	var srcAt, dstAt []int
	for e := 0; e < 39; e++ {
		srcAt, dstAt = append(srcAt, e%rows), append(dstAt, e/rows%rows)
	}
	for w := 1; w <= 40; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		draw := func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				if rng.Intn(2) == 0 {
					v[i] = specials[rng.Intn(len(specials))]
				} else {
					v[i] = rng.NormFloat64()
				}
			}
			return v
		}
		hs, hd, a := FromSlice(rows, w, draw(rows*w)), FromSlice(rows, w, draw(rows*w)), draw(w)
		clear(hs.Row(0))
		clear(hd.Row(0))
		for j := range w {
			hs.Row(1)[j] = math.Float64frombits(0x7ff8_0000_0001_0000 | uint64(j))
			hd.Row(1)[j] = math.Float64frombits(0xfff8_0000_0002_0000 | uint64(j))
			hs.Row(2)[j] = rng.NormFloat64()
			hd.Row(2)[j] = -hs.Row(2)[j]
		}
		for _, slope := range slopes {
			bothPaths(t, fmt.Sprintf("w=%d/slope=%v", w, slope), make([]float64, len(srcAt)), 0, func(score []float64) {
				EdgeScores(score, hs, hd, srcAt, dstAt, a, slope)
			})
		}
	}
}

// TestVecExpBitExact pins VecExp to math.Exp and VecELU to the scalar
// ELU (math.Exp(x) - 1 below zero, x elsewhere), bit for bit, on every
// kernel path: a dense sweep of [-746, 0], the softmax's and the
// activation's domain, through the subnormal results below about -708.4
// and the underflow to zero below about -745.1; a sparser one of
// [0, 746], past overflow; a window of ulps around each edge the
// assembly tests (the exponent k = round(x·log2 e) leaving [-1022,
// 1023]) and each edge of math.Exp's results (the smallest normal and
// the smallest subnormal, overflow); and the special values, ±0, the
// smallest subnormals, ±Inf and NaNs with distinct payloads. The values
// are shuffled, so groups of four mix lanes the assembly computes with
// lanes it leaves to math.Exp, and each op runs at every misalignment.
func TestVecExpBitExact(t *testing.T) {
	if cpuHasAVX2() && !strings.Contains(os.Getenv("GODEBUG"), "cpu.") && !expOnAVX2 {
		t.Error("the exp kernels are off on a CPU with AVX2 and FMA")
	}
	const sweep = 1 << 18
	var xs []float64
	for i := 0; i <= sweep; i++ {
		xs = append(xs, -746*float64(i)/sweep)
	}
	for i := 0; i <= sweep/8; i++ {
		xs = append(xs, 746*float64(i)/(sweep/8))
	}
	for _, edge := range []float64{
		-1022.5 * math.Ln2, 1023.5 * math.Ln2, // k leaves [-1022, 1023]
		1024.5 * math.Ln2,   // 2^k's biased exponent leaves 11 bits
		-708.3964185322641,  // the smallest normal result
		-745.1332191019411,  // the smallest subnormal result
		709.782712893384,    // math.Exp's overflow threshold
		-math.MaxFloat64, 0, // the ends of the finite negatives
	} {
		x := edge
		for range 64 {
			x = math.Nextafter(x, math.Inf(-1))
		}
		for range 128 {
			xs = append(xs, x)
			x = math.Nextafter(x, math.Inf(1))
		}
	}
	xs = append(xs, kernelSpecials...)
	xs = append(xs,
		math.Float64frombits(0x7ff8_0000_0000_0011),
		math.Float64frombits(0xfff8_0000_0000_0022),
		math.Float64frombits(0x7ff0_0000_0000_0033),
		math.Float64frombits(0xfff0_0000_0000_0044),
	)
	rand.New(rand.NewSource(7)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })

	wantExp, wantELU := make([]float64, len(xs)), make([]float64, len(xs))
	for i, x := range xs {
		wantExp[i], wantELU[i] = math.Exp(x), x
		if x < 0 {
			wantELU[i] = math.Exp(x) - 1
		}
	}
	forEachKernelPath(t, func(t *testing.T) {
		for off := range 4 {
			for _, c := range []struct {
				name string
				op   func([]float64)
				want []float64
			}{{"VecExp", VecExp, wantExp}, {"VecELU", VecELU, wantELU}} {
				got := append(make([]float64, off, off+len(xs)), xs...)[off:]
				c.op(got)
				for i, w := range c.want {
					if g := got[i]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s(%v) at offset %d = %v (%#x), want %v (%#x)",
							c.name, xs[i], off, g, math.Float64bits(g), w, math.Float64bits(w))
					}
				}
			}
		}
	})
}

// TestKernelsRejectShortSlices pins that every wrapper checks its
// lengths in Go before the kernel runs: a slice too short for the
// operation panics on both paths instead of reaching the assembly.
func TestKernelsRejectShortSlices(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		long := make([]float64, 5)
		short := make([]float64, 3)
		shortRoomy := make([]float64, 3, 8) // long enough only by capacity
		for _, c := range []struct {
			name string
			op   func()
		}{
			{"axpy", func() { axpy(1, short, long) }},
			{"VecAdd", func() { VecAdd(short, long) }},
			{"VecAdd/cap", func() { VecAdd(shortRoomy, long) }},
			{"VecAddScaled", func() { VecAddScaled(short, 2, long) }},
			{"VecAddScaled/cap", func() { VecAddScaled(shortRoomy, 2, long) }},
			{"matmulRow/b", func() {
				matmulRow(make([]float64, 4), []float64{1, 1}, make([]float64, 7), false)
			}},
			{"matmulRow/b/fresh", func() {
				matmulRow(make([]float64, 4), []float64{1, 1}, make([]float64, 7), true)
			}},
			{"matmulRow/b/cap", func() {
				matmulRow(make([]float64, 4), []float64{1, 1}, make([]float64, 7, 8), false)
			}},
			{"MatMulRowsInto/row", func() {
				MatMulRowsInto(New(2, 4), New(2, 3), []int{0, 2}, New(3, 4))
			}},
			{"MatMulInto/b.Data", func() {
				MatMulInto(New(2, 4), New(2, 3), &Mat{R: 3, C: 4, Data: make([]float64, 11)})
			}},
			{"EdgeScores/src", func() {
				EdgeScores(make([]float64, 4), New(2, 3), New(2, 3), []int{0, 1, 2, 0}, make([]int, 4), long, 0.2)
			}},
			{"EdgeScores/dst", func() {
				EdgeScores(make([]float64, 4), New(2, 3), New(2, 3), make([]int, 4), []int{0, 0, 0, -1}, long, 0.2)
			}},
			{"EdgeScores/edges", func() {
				EdgeScores(make([]float64, 5), New(2, 3), New(2, 3), make([]int, 4), make([]int, 5), long, 0.2)
			}},
			{"EdgeScores/att", func() {
				EdgeScores(make([]float64, 4), New(2, 3), New(2, 3), make([]int, 4), make([]int, 4), short[:2], 0.2)
			}},
			{"EdgeScores/width", func() {
				EdgeScores(make([]float64, 4), New(2, 3), New(2, 4), make([]int, 4), make([]int, 4), long, 0.2)
			}},
			{"EdgeScores/hs.Data", func() {
				EdgeScores(make([]float64, 4), &Mat{R: 2, C: 3, Data: make([]float64, 5)}, New(2, 3), []int{1, 1, 1, 1}, make([]int, 4), long, 0.2)
			}},
		} {
			if !panics(c.op) {
				t.Errorf("%s with a short slice did not panic", c.name)
			}
		}
	})
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// BenchmarkKernels times each kernel path at serving shapes: MatMulInto
// for the three GATv2 layers of gnn.Default() over a 512-node batch,
// VecAddScaled at ir2vec.Dim (256), and at the GNN's widths 16, 24 and
// 32 the attention scores of 2048 edges between 512-row tables
// (EdgeScores) and the activation of a 512-row matrix (VecELU), whose
// inputs are standard normals, so half the activations are negative.
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, p := range kernelPaths() {
		b.Run(p.name, func(b *testing.B) {
			for _, sh := range []struct{ m, k, n int }{{512, 16, 32}, {512, 32, 24}, {512, 24, 16}, {512, 32, 32}, {512, 48, 16}} {
				x, w := Randn(rng, sh.m, sh.k, 1), Randn(rng, sh.k, sh.n, 1)
				out := New(sh.m, sh.n)
				b.Run(fmt.Sprintf("MatMulInto_%dx%dx%d", sh.m, sh.k, sh.n), func(b *testing.B) {
					withKernels(p.avx2, func() {
						for b.Loop() {
							out.Zero()
							MatMulInto(out, x, w)
						}
					})
				})
			}
			dst, src := make([]float64, 256), Randn(rng, 1, 256, 1).Data
			b.Run("VecAddScaled_256", func(b *testing.B) {
				withKernels(p.avx2, func() {
					for b.Loop() {
						VecAddScaled(dst, 0.5, src)
					}
				})
			})
			for _, w := range []int{16, 24, 32} {
				hs, hd, a := Randn(rng, 512, w, 1), Randn(rng, 512, w, 1), Randn(rng, w, 1, 1).Data
				srcAt, dstAt := make([]int, 2048), make([]int, 2048)
				for i := range srcAt {
					srcAt[i], dstAt[i] = rng.Intn(512), rng.Intn(512)
				}
				score := make([]float64, len(srcAt))
				b.Run(fmt.Sprintf("EdgeScores_2048x%d", w), func(b *testing.B) {
					withKernels(p.avx2, func() {
						for b.Loop() {
							EdgeScores(score, hs, hd, srcAt, dstAt, a, 0.2)
						}
					})
				})
				in, v := Randn(rng, 512, w, 1).Data, make([]float64, 512*w)
				b.Run(fmt.Sprintf("VecELU_512x%d", w), func(b *testing.B) {
					withKernels(p.avx2, func() {
						for b.Loop() {
							copy(v, in)
							VecELU(v)
						}
					})
				})
			}
		})
	}
}
