//go:build !amd64 || purego

package tensor

// Without the assembly the generic kernels always run.
func cpuHasAVX2() bool { return false }

func axpyAVX2(a float64, x, y []float64) { panic("tensor: AVX2 kernels not built") }

func vecAddAVX2(dst, src []float64) { panic("tensor: AVX2 kernels not built") }

func matmulRowAVX2(orow, arow, b []float64, fresh bool) {
	panic("tensor: AVX2 kernels not built")
}

func edgeScoresAVX2(score, hs, hd []float64, w int, srcAt, dstAt []int, a []float64, slope float64) {
	panic("tensor: AVX2 kernels not built")
}

func expAVX2(v []float64) int { panic("tensor: AVX2 kernels not built") }

func eluAVX2(v []float64) int { panic("tensor: AVX2 kernels not built") }
