//go:build amd64 && !purego

package tensor

// Implemented in kernels_amd64.s. Their Go callers have already checked
// every length the assembly relies on.

//go:noescape
func axpyAVX2(a float64, x, y []float64)

//go:noescape
func vecAddAVX2(dst, src []float64)

//go:noescape
func matmulRowAVX2(orow, arow, b []float64, fresh bool)

//go:noescape
func edgeScoresAVX2(score, hs, hd []float64, w int, srcAt, dstAt []int, a []float64, slope float64)

// expAVX2 and eluAVX2 return how many entries they did: a multiple of
// four, stopping before the first group that needs math.Exp's special
// cases or that is not a whole four.
//
//go:noescape
func expAVX2(v []float64) int

//go:noescape
func eluAVX2(v []float64) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// cpuHasAVX2 reports whether the CPU implements AVX2 and FMA and the OS
// saves the YMM registers across context switches (OSXSAVE set and XCR0
// enabling both the SSE and AVX state). With AVX and FMA, math.Exp runs
// its FMA path, which the exp kernels reproduce.
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	const sseAVXState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&sseAVXState != sseAVXState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
