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
