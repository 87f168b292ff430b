package tensor

// Test-only API: production code does not call it.

// MatMul computes a @ b into a new matrix.
func MatMul(a, b *Mat) *Mat {
	out := New(a.R, b.C)
	MatMulInto(out, a, b)
	return out
}

// MatMulATB computes aᵀ @ b (used by backward passes without
// materialising the transpose).
func MatMulATB(a, b *Mat) *Mat {
	out := New(a.C, b.C)
	MatMulATBInto(out, a, b)
	return out
}

// MatMulABT computes a @ bᵀ.
func MatMulABT(a, b *Mat) *Mat {
	out := New(a.R, b.R)
	MatMulABTAddInto(out, a, b)
	return out
}
