// Canonical content digests for the serving path's content-addressed
// cache. Two programs are "the same" — and may share one cached verdict —
// exactly when their normalized textual IR is byte-identical AND they are
// judged by the same detector family at the same optimisation level under
// the same artifact format version:
//
//	digest = sha256("v" ArtifactVersion "|" detector.Name() "|" detector.Opt() "|" normalized(src))
//
// Normalization is purely lexical: comment lines (";") and blank lines are
// dropped, and every run of spaces/tabs collapses to a single space. The
// normal form is not parseable IR; it only makes digests insensitive to
// formatting, so it never changes what the detector sees: every program
// still parses and classifies from its original text. What the digest deliberately
// does NOT include is model weights — retraining a detector of the same
// family produces identical digests, which is why the serving layer
// invalidates a model's cache entries whenever its registry slot is
// replaced (Registry.Register / LoadFile).
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
	"sync"

	"mpidetect/internal/ast"
)

// appendNormalizedIR is the one normalizer body, run by the streaming
// digest; digesting runs on the serving hot path for every program of
// every request, so it must stay cheap next to a map lookup. It appends
// the normal form of src's lines to dst and returns the text it left
// unconsumed: it stops before a line whose normal form might not fit in
// cap(dst) (a line of n bytes yields at most n+1), unless dst is empty,
// so a caller that drains dst between calls always progresses and dst
// only grows for a single line longer than it.
//
// It works a line at a time: leading blanks are trimmed and comment
// lines skipped, and a line that has no quote, tab, carriage return,
// double space or trailing blank — nearly every line of printed IR — is
// already normal and is copied whole. Any other line goes through
// appendNormalizedLine. No state crosses a line break, so where the
// caller cuts the text between calls never changes the output.
func appendNormalizedIR(dst []byte, src string) ([]byte, string) {
	for len(src) > 0 {
		line, rest := src, ""
		if i := strings.IndexByte(src, '\n'); i >= 0 {
			line, rest = src[:i], src[i+1:]
		}
		if len(dst) > 0 && len(dst)+len(line)+1 > cap(dst) {
			break
		}
		src = rest
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
	return dst, src
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

// digestChunk is the size of the buffer the digest normalizes into;
// every full chunk goes to the hasher, so a digest never holds the
// normalized text of a whole program.
const digestChunk = 4 << 10

// digestChunks pools the chunk buffers. A chunk on the stack would make
// every fresh request goroutine grow its stack to hold it.
var digestChunks = sync.Pool{New: func() any { return new([digestChunk]byte) }}

// sumHeadered is sumNormalized over a header of parts (see appendHeader),
// through a pooled chunk.
func sumHeadered(src string, parts ...string) string {
	chunk := digestChunks.Get().(*[digestChunk]byte)
	defer digestChunks.Put(chunk)
	return sumNormalized(appendHeader(chunk[:0], parts...), src)
}

// sumNormalized returns hex(sha256(buf + normalized(src))) for a header
// already in buf, streaming the normalized text through chunk-sized
// pieces of buf cut at line boundaries.
func sumNormalized(buf []byte, src string) string {
	h := sha256.New()
	for {
		buf, src = appendNormalizedIR(buf, src)
		h.Write(buf)
		if src == "" {
			break
		}
		buf = buf[:0]
	}
	var sum [sha256.Size]byte
	return hexString(h.Sum(sum[:0]))
}

// sumHeaderedPair returns sumHeadered(src, a...) and sumHeadered(src,
// b...) from one normalising pass through buf: each normalized chunk
// feeds one hasher per header. The hashers stay local, as in
// sumNormalized, so they need no heap.
func sumHeaderedPair(buf []byte, src string, a, b []string) (string, string) {
	ha, hb := sha256.New(), sha256.New()
	ha.Write(appendHeader(buf[:0], a...))
	hb.Write(appendHeader(buf[:0], b...))
	for src != "" {
		buf, src = appendNormalizedIR(buf[:0], src)
		ha.Write(buf)
		hb.Write(buf)
	}
	var sa, sb [sha256.Size]byte
	return hexString(ha.Sum(sa[:0])), hexString(hb.Sum(sb[:0]))
}

// hexString returns sum in lower-case hex.
func hexString(sum []byte) string {
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], sum)
	return string(h[:])
}

// appendHeader appends the digest header "v" ArtifactVersion "|" for
// each identity part p: p "|".
func appendHeader(dst []byte, parts ...string) []byte {
	dst = strconv.AppendInt(append(dst, 'v'), ArtifactVersion, 10)
	dst = append(dst, '|')
	for _, p := range parts {
		dst = append(append(dst, p...), '|')
	}
	return dst
}

// digest hashes the detector identity header plus normalized body.
func digest(d Detector, namespace, body string) string {
	return sumHeadered(body, d.Name(), d.Opt().String(), namespace)
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

// DigestIRAndKeyed returns DigestIR(d, src) and DigestIRKeyed(ident,
// src), byte for byte, from one normalising pass over src. An analyze
// request keys its ML verdict and its tool verdicts by the two.
func DigestIRAndKeyed(d Detector, ident, src string) (irDigest, keyed string) {
	chunk := digestChunks.Get().(*[digestChunk]byte)
	defer digestChunks.Put(chunk)
	return sumHeaderedPair(chunk[:0], src,
		[]string{d.Name(), d.Opt().String(), "ir"}, []string{ident, "ir"})
}

// DigestIRKeyed is DigestIR for analyses that are not trained detectors:
// ident names the analysis identity — an expert tool plus every piece of
// configuration that can change its verdict (simulated ranks, step
// budget, ...). Two programs share a cached tool verdict exactly when
// their normalized IR is byte-identical AND ident matches, under the
// same artifact format version.
func DigestIRKeyed(ident, src string) string {
	return sumHeadered(src, ident, "ir")
}
