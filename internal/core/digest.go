// Canonical content digests for the serving path's content-addressed
// cache. Two programs are "the same" — and may share one cached verdict —
// exactly when their normalized textual IR is byte-identical AND they are
// judged by the same detector family at the same optimisation level under
// the same artifact format version:
//
//	digest = sha256("v" ArtifactVersion "|" detector.Name() "|" detector.Opt() "|" NormalizeIR(src))
//
// Normalization is purely lexical (whitespace- and comment-insensitive),
// so it never changes what the detector sees: every program still parses
// and classifies from its original text. What the digest deliberately
// does NOT include is model weights — retraining a detector of the same
// family produces identical digests, which is why the serving layer
// invalidates a model's cache entries whenever its registry slot is
// replaced (Registry.Register / LoadFile).
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"mpidetect/internal/ast"
)

// NormalizeIR canonicalizes textual IR for digesting: comment lines (";")
// and blank lines are dropped, and every run of spaces/tabs collapses to
// a single space. The result is NOT parseable IR — it exists only to make
// digests insensitive to formatting.
func NormalizeIR(src string) string {
	return string(appendNormalizedIR(make([]byte, 0, len(src)), src))
}

// appendNormalizedIR is an allocation-free (modulo dst growth)
// normalizer; digesting runs on the serving hot path for every
// program of every request, so it must stay cheap next to a map lookup.
// It works a line at a time: leading blanks are trimmed and comment
// lines skipped, and a line that has no quote, tab, carriage return,
// double space or trailing blank — nearly every line of printed IR — is
// already normal and is copied whole. Any other line goes through
// appendNormalizedLine.
func appendNormalizedIR(dst []byte, src string) []byte {
	for len(src) > 0 {
		line := src
		if i := strings.IndexByte(src, '\n'); i >= 0 {
			line, src = src[:i], src[i+1:]
		} else {
			src = ""
		}
		for len(line) > 0 && (line[0] == ' ' || line[0] == '\t' || line[0] == '\r') {
			line = line[1:]
		}
		if line == "" || line[0] == ';' {
			continue
		}
		if line[len(line)-1] != ' ' && strings.IndexByte(line, '"') < 0 &&
			strings.IndexByte(line, '\t') < 0 && strings.IndexByte(line, '\r') < 0 &&
			!strings.Contains(line, "  ") {
			dst = append(dst, line...)
		} else {
			dst = appendNormalizedLine(dst, line)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// appendNormalizedLine normalizes one line that starts with a byte other
// than a blank or ';': every run of spaces, tabs and carriage returns
// collapses to one space, and trailing blanks are dropped. Bytes inside
// double-quoted literals (IR c"..." constants, C string literals) are
// copied verbatim — whitespace there is program content, not formatting
// — with backslash escapes honoured so an escaped quote cannot end the
// literal. Neither representation carries a literal across lines.
func appendNormalizedLine(dst []byte, line string) []byte {
	pendingSpace := false // a whitespace run awaits the next non-blank byte
	inQuote := false      // inside a "..." literal: copy verbatim
	escaped := false      // previous in-quote byte was a backslash
	for i := 0; i < len(line); i++ {
		ch := line[i]
		switch {
		case inQuote:
			dst = append(dst, ch)
			switch {
			case escaped:
				escaped = false
			case ch == '\\':
				escaped = true
			case ch == '"':
				inQuote = false
			}
		case ch == ' ' || ch == '\t' || ch == '\r':
			pendingSpace = true
		default:
			if pendingSpace {
				dst = append(dst, ' ')
				pendingSpace = false
			}
			dst = append(dst, ch)
			if ch == '"' {
				inQuote = true
				escaped = false
			}
		}
	}
	return dst
}

// digest hashes the detector identity header plus normalized body.
func digest(d Detector, namespace, body string) string {
	buf := make([]byte, 0, len(body)+64)
	buf = fmt.Appendf(buf, "v%d|%s|%s|%s|", ArtifactVersion, d.Name(), d.Opt(), namespace)
	buf = appendNormalizedIR(buf, body)
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// DigestIR returns the canonical cache digest of a textual-IR program as
// judged by detector d (hex sha256). It requires no parse, so a cache hit
// skips the whole parse→optimise→embed→predict pipeline.
func DigestIR(d Detector, src string) string {
	return digest(d, "ir", src)
}

// DigestProgram is DigestIR for an MPI-C AST program: the digest is taken
// over the rendered C source (same lexical normalization), so re-slicing
// tools that generate identical units (fault localisation, CI re-checks)
// address the same cache entry.
func DigestProgram(d Detector, p *ast.Program) string {
	return digest(d, "c", ast.RenderC(p))
}

// DigestIRKeyed is DigestIR for analyses that are not trained detectors:
// ident names the analysis identity — an expert tool plus every piece of
// configuration that can change its verdict (simulated ranks, step
// budget, ...). Two programs share a cached tool verdict exactly when
// their normalized IR is byte-identical AND ident matches, under the
// same artifact format version.
func DigestIRKeyed(ident, src string) string {
	buf := make([]byte, 0, len(src)+64)
	buf = fmt.Appendf(buf, "v%d|%s|ir|", ArtifactVersion, ident)
	buf = appendNormalizedIR(buf, src)
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}
