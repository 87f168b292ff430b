//go:build !race

// The race detector drops pooled digest chunks at random, so these
// allocation counts hold only in ordinary builds.

package core

import (
	"testing"

	"mpidetect/internal/passes"
)

// TestDigestAllocs pins the digests to their result strings: the
// hashers, sums and chunk stay off the heap, so a digest on the serving
// hot path costs one allocation per hex string it returns.
func TestDigestAllocs(t *testing.T) {
	var det Detector = stubDet{"IR2Vec+DT", passes.Os}
	src := sampleIR(t) // no line longer than a chunk, which would grow it
	var a, b string
	cases := []struct {
		name string
		want float64
		run  func()
	}{
		{"DigestIR", 1, func() { a = DigestIR(det, src) }},
		{"DigestIRKeyed", 1, func() { a = DigestIRKeyed("analyze", src) }},
		{"DigestIRAndKeyed", 2, func() { a, b = DigestIRAndKeyed(det, "analyze", src) }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(50, c.run); got != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.want)
		}
	}
	_, _ = a, b
}
