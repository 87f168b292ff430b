package core

import (
	"strings"
	"testing"

	"mpidetect/internal/ast"
	"mpidetect/internal/dataset"
	"mpidetect/internal/ir"
	"mpidetect/internal/irgen"
	"mpidetect/internal/passes"
)

// digestDetectors returns two stub detectors differing only in identity,
// so digest tests don't pay for training.
type stubDet struct {
	name string
	opt  passes.OptLevel
}

func (s stubDet) CheckModules(ms []*ir.Module) ([]Verdict, error) {
	return make([]Verdict, len(ms)), nil
}
func (s stubDet) Name() string         { return s.name }
func (s stubDet) Opt() passes.OptLevel { return s.opt }

func sampleIR(t *testing.T) string {
	t.Helper()
	d := dataset.GenerateCorrBench(1, false)
	m := irgen.MustLower(d.Codes[0].Prog)
	return ir.Print(m)
}

func TestDigestStableUnderFormatting(t *testing.T) {
	det := stubDet{"IR2Vec+DT", passes.Os}
	src := sampleIR(t)
	base := DigestIR(det, src)

	// Extra indentation, trailing spaces, blank lines, and comments must
	// not change the digest.
	messy := "; a leading comment\n\n" + strings.ReplaceAll(src, "\n", "  \n\n") + "\n; trailing comment\n"
	messy = strings.ReplaceAll(messy, " = ", "   =  ")
	if got := DigestIR(det, messy); got != base {
		t.Fatalf("digest changed under lexical reformatting:\n%s\nvs\n%s", base, got)
	}
	if DigestIR(det, src) != base {
		t.Fatal("digest is not deterministic")
	}
}

func TestDigestSeparatesPrograms(t *testing.T) {
	det := stubDet{"IR2Vec+DT", passes.Os}
	d := dataset.GenerateCorrBench(1, false)
	a := ir.Print(irgen.MustLower(d.Codes[0].Prog))
	b := ir.Print(irgen.MustLower(d.Codes[1].Prog))
	if DigestIR(det, a) == DigestIR(det, b) {
		t.Fatal("distinct programs share a digest")
	}
}

func TestDigestSeparatesDetectorIdentity(t *testing.T) {
	src := sampleIR(t)
	base := DigestIR(stubDet{"IR2Vec+DT", passes.Os}, src)
	if DigestIR(stubDet{"ProGraML+GATv2", passes.Os}, src) == base {
		t.Fatal("different detector families share a digest")
	}
	if DigestIR(stubDet{"IR2Vec+DT", passes.O0}, src) == base {
		t.Fatal("different optimisation levels share a digest")
	}
}

func TestDigestIRKeyed(t *testing.T) {
	src := sampleIR(t)
	base := DigestIRKeyed("tool:must|ranks=2|steps=200000", src)
	messy := "; comment\n" + strings.ReplaceAll(src, "\n", "\n\n")
	if DigestIRKeyed("tool:must|ranks=2|steps=200000", messy) != base {
		t.Fatal("keyed digest changed under lexical reformatting")
	}
	if DigestIRKeyed("tool:must|ranks=4|steps=200000", src) == base {
		t.Fatal("different tool configurations share a digest")
	}
	if DigestIRKeyed("tool:itac|ranks=2|steps=200000", src) == base {
		t.Fatal("different tools share a digest")
	}
	if DigestIRKeyed("tool:must|ranks=2|steps=200000", src) != base {
		t.Fatal("keyed digest is not deterministic")
	}
}

func TestDigestProgram(t *testing.T) {
	det := stubDet{"IR2Vec+DT", passes.Os}
	d := dataset.GenerateCorrBench(1, false)
	p0, p1 := d.Codes[0].Prog, d.Codes[1].Prog
	if DigestProgram(det, p0) != DigestProgram(det, p0) {
		t.Fatal("program digest is not deterministic")
	}
	if DigestProgram(det, p0) == DigestProgram(det, p1) {
		t.Fatal("distinct programs share a program digest")
	}
	// IR digests and program digests live in distinct namespaces: the same
	// logical program must never collide across representations.
	if DigestProgram(det, p0) == DigestIR(det, ast.RenderC(p0)) {
		t.Fatal("program and IR digest namespaces collide")
	}
}

func TestNormalizeIR(t *testing.T) {
	in := "  a   b \n; comment\n\n\tc\td  \n"
	want := "a b\nc d\n"
	if got := NormalizeIR(in); got != want {
		t.Fatalf("NormalizeIR = %q, want %q", got, want)
	}
}

// TestDigestPreservesQuotedLiterals: whitespace inside string constants
// is program content, not formatting — two IRs whose c"..." literals
// differ only in internal spacing must not share a digest, while
// whitespace outside literals still normalizes away.
func TestDigestPreservesQuotedLiterals(t *testing.T) {
	det := stubDet{"IR2Vec+DT", passes.Os}
	a := "@s = constant [5 x i8] c\"a  b\"\n"
	b := "@s = constant [4 x i8] c\"a b\"\n"
	if DigestIR(det, a) == DigestIR(det, b) {
		t.Fatal("string constants differing in internal whitespace share a digest")
	}
	spaced := "@s   = constant   [5 x i8]   c\"a  b\"\n"
	if DigestIR(det, a) != DigestIR(det, spaced) {
		t.Fatal("whitespace outside the literal changed the digest")
	}
	// An escaped quote must not end the literal early.
	esc := "@s = constant [4 x i8] c\"a\\\"  b\"  extra\n"
	esc2 := "@s = constant [4 x i8] c\"a\\\" b\"  extra\n"
	if DigestIR(det, esc) == DigestIR(det, esc2) {
		t.Fatal("escaped quote terminated the literal: in-literal spacing was normalized")
	}
	if got := NormalizeIR("x  \"a  b\"  y"); got != "x \"a  b\" y\n" {
		t.Fatalf("NormalizeIR quoted handling = %q", got)
	}
}

// referenceNormalizeIR is the byte-at-a-time normalizer that
// appendNormalizedIR replaced, kept as the oracle the line-at-a-time
// version must match byte for byte: the store is keyed by digests, so a
// single differing byte would orphan every stored verdict.
func referenceNormalizeIR(dst []byte, src string) []byte {
	atLineStart := true   // no non-blank byte seen on this line yet
	skipLine := false     // comment line: discard until '\n'
	pendingSpace := false // a whitespace run awaits the next non-blank byte
	wrote := false        // this line contributed output
	inQuote := false      // inside a "..." literal: copy verbatim
	escaped := false      // previous in-quote byte was a backslash
	for i := 0; i < len(src); i++ {
		ch := src[i]
		if ch == '\n' {
			if wrote {
				dst = append(dst, '\n')
			}
			atLineStart, skipLine, pendingSpace, wrote = true, false, false, false
			inQuote, escaped = false, false
			continue
		}
		switch {
		case skipLine:
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
			pendingSpace = wrote
		default:
			if atLineStart && ch == ';' {
				skipLine = true
				continue
			}
			atLineStart = false
			if pendingSpace {
				dst = append(dst, ' ')
				pendingSpace = false
			}
			dst = append(dst, ch)
			wrote = true
			if ch == '"' {
				inQuote = true
				escaped = false
			}
		}
	}
	if wrote { // final line without trailing newline
		dst = append(dst, '\n')
	}
	return dst
}

// normalizeCorpus is every MBI and CorrBench program of one generator
// seed as printed IR and as rendered C, the two texts serving digests.
func normalizeCorpus(tb testing.TB) []string {
	tb.Helper()
	d := dataset.Merge("digest", dataset.GenerateMBI(1), dataset.GenerateCorrBench(1, true))
	var out []string
	for _, c := range d.Codes {
		out = append(out, ir.Print(irgen.MustLower(c.Prog)), ast.RenderC(c.Prog))
	}
	return out
}

// TestNormalizeIRMatchesReference: the line-at-a-time normalizer agrees
// with the reference on the whole corpus, printed as is and reformatted.
func TestNormalizeIRMatchesReference(t *testing.T) {
	for i, src := range normalizeCorpus(t) {
		messy := "; c\n\t" + strings.ReplaceAll(src, "\n", " \r\n  ") + "\t"
		spaced := strings.ReplaceAll(src, " ", "  ")
		for _, s := range []string{src, messy, spaced} {
			got := appendNormalizedIR(nil, s)
			if want := referenceNormalizeIR(nil, s); string(got) != string(want) {
				t.Fatalf("program %d: normalized text differs from the reference:\n got %q\nwant %q", i, got, want)
			}
		}
	}
}

// FuzzNormalizeIR compares the normalizer with the reference byte for
// byte on arbitrary text.
func FuzzNormalizeIR(f *testing.F) {
	for _, c := range dataset.GenerateCorrBench(1, true).Codes[:8] {
		f.Add(ir.Print(irgen.MustLower(c.Prog)))
		f.Add(ast.RenderC(c.Prog))
	}
	for _, s := range []string{
		"", "\n", ";", "  ; c\n", "a  b", "a  b \n", "\ta\tb\r\n", "x \"a  b\" y", "x \"a\\\" b\"  z",
		"\"unterminated  \n  next", "a\\\"  b", " \r;x\ny", "a ;b  \"\"  c ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got := appendNormalizedIR(nil, src)
		if want := referenceNormalizeIR(nil, src); string(got) != string(want) {
			t.Fatalf("normalized %q:\n got %q\nwant %q", src, got, want)
		}
	})
}
