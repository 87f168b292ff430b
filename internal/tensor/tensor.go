// Package tensor provides the dense float64 matrix kernels underneath the
// autodiff engine and the neural layers. The kernels are written for cache
// friendliness (row-major, k-loop hoisting) since the GNN training loop is
// dominated by small dense matmuls.
//
// Every result is bit-identical on every host. On amd64 CPUs with AVX2
// the axpy, vector-add and matmul row kernels run as assembly; elsewhere,
// and under -tags purego, as plain Go. The matmul row kernel reads its a
// row itself, skipping zero terms, and applies each term to a whole
// register-held panel of up to 32 output columns in one walk over k. The
// assembly uses no FMA (each term is one rounded multiply and one rounded
// add, as in Go) and orders each VEX operand pair as the compiler does
// for the scalar loops, so even NaN payloads match. See kernels.go.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Mat is a row-major dense matrix.
type Mat struct {
	R, C int
	Data []float64
}

// New returns a zeroed R×C matrix.
func New(r, c int) *Mat {
	return &Mat{R: r, C: c, Data: make([]float64, r*c)}
}

// FromSlice wraps data (length r*c) into a matrix without copying.
func FromSlice(r, c int, data []float64) *Mat {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: FromSlice %dx%d with %d values", r, c, len(data)))
	}
	return &Mat{R: r, C: c, Data: data}
}

// Randn fills a new R×C matrix with N(0, std²) entries from rng.
func Randn(rng *rand.Rand, r, c int, std float64) *Mat {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// XavierInit returns a matrix initialised with Glorot scaling.
func XavierInit(rng *rand.Rand, r, c int) *Mat {
	return Randn(rng, r, c, math.Sqrt(2.0/float64(r+c)))
}

// At returns m[i,j].
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set assigns m[i,j] = v.
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Row returns the i-th row as a slice view.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.C : (i+1)*m.C] }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	out := New(m.R, m.C)
	copy(out.Data, m.Data)
	return out
}

// Zero clears the matrix in place.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Mat) {
	if a.R != b.R || a.C != b.C {
		panic("tensor: AddInPlace shape mismatch")
	}
	VecAdd(a.Data, b.Data)
}

// ScaleInPlace multiplies every entry by s.
func ScaleInPlace(a *Mat, s float64) {
	for i := range a.Data {
		a.Data[i] *= s
	}
}

// Equalish reports whether two matrices match within tol.
func Equalish(a, b *Mat, tol float64) bool {
	if a.R != b.R || a.C != b.C {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Vector helpers used by IR2Vec (plain []float64 embeddings).
// ---------------------------------------------------------------------------

// VecAdd accumulates src into dst. It panics when dst is shorter than
// src. dst must not partially overlap src.
func VecAdd(dst, src []float64) {
	dst = dst[:len(src):len(dst)]
	if useAVX2 {
		vecAddAVX2(dst, src)
		return
	}
	vecAddGeneric(dst, src)
}

// VecAddScaled accumulates s*src into dst, with VecAdd's length rules.
func VecAddScaled(dst []float64, s float64, src []float64) {
	axpy(s, src, dst[:len(src):len(dst)])
}

// VecScale multiplies v by s in place.
func VecScale(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}

// VecMaxAbs returns max |v_i|.
func VecMaxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// VecNorm returns the L2 norm.
func VecNorm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// VecDist returns the L2 distance between a and b.
func VecDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
