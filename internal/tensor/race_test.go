//go:build race

package tensor

// raceBuild is true under the race detector, whose instrumented build
// compiles the scalar loops with other operand orders (even differing
// between an unrolled body and its tail), so the Go kernels' NaN payloads
// are not the normal build's there.
const raceBuild = true
