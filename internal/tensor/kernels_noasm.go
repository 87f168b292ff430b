//go:build !amd64 || purego

package tensor

// Without the assembly the generic kernels always run.
func cpuHasAVX2() bool { return false }

func axpyAVX2(a float64, x, y []float64) { panic("tensor: AVX2 kernels not built") }

func vecAddAVX2(dst, src []float64) { panic("tensor: AVX2 kernels not built") }

func matmulRowAVX2(orow, arow, b []float64, fresh bool) {
	panic("tensor: AVX2 kernels not built")
}
