package core

// Test-only API: production code does not call it.

// NormalizeIR canonicalizes textual IR for digesting: comment lines (";")
// and blank lines are dropped, and every run of spaces/tabs collapses to
// a single space. The result is NOT parseable IR — it exists only to make
// digests insensitive to formatting.
func NormalizeIR(src string) string {
	// Each line's normal form is at most its length plus a newline, so a
	// len(src)+1 buffer holds the whole text and one call consumes it.
	dst, _ := appendNormalizedIR(make([]byte, 0, len(src)+1), src)
	return string(dst)
}
