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

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// cpuHasAVX2 reports whether the CPU implements AVX2 and the OS saves
// the YMM registers across context switches (OSXSAVE set and XCR0
// enabling both the SSE and AVX state).
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
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
