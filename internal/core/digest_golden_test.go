package core

import (
	"fmt"
	"strings"
	"testing"

	"mpidetect/internal/ast"
	"mpidetect/internal/passes"
)

// goldenIR is a fixed text that exercises every normalizer rule and is
// longer than two digest chunks: CRLF line ends, tab and space runs,
// comment and blank lines, quoted literals holding whitespace and
// escaped quotes and backslashes, a fast-path line and a slow-path line
// each longer than a chunk, and no newline at the end.
func goldenIR() string {
	var b strings.Builder
	b.WriteString("; ModuleID = 'golden'\r\n\r\n")
	b.WriteString("@s = private constant [12 x i8] c\"a  b\\09\\22 \\\"q  \\\\\"\r\n")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&b, "  %%%d = add i32 %%%d,\t\t%d   ; note %d\r\n", i+1, i, i*7, i)
		if i%25 == 0 {
			fmt.Fprintf(&b, "; comment line %d\n\n\t \n", i)
		}
		if i%40 == 0 {
			fmt.Fprintf(&b, "  call void @puts(i8* \"x  \\\"y\\\\\"  z\" ,  i32 %d)\n", i)
		}
	}
	b.WriteString(strings.Repeat("x", 5000) + "\n")
	b.WriteString(strings.Repeat("a  \t", 1500) + "\"q  \"")
	return b.String()
}

// goldenProgram is a fixed MPI-C program whose rendered source carries
// a string literal with doubled spaces and escapes.
func goldenProgram() *ast.Program {
	return ast.MainProgram("golden", append(ast.MPIBoilerplate(),
		ast.CallS("printf", ast.S("rank  %d\\t\\\"ok\\\"\\n"), ast.Id("rank")),
		ast.Finalize())...)
}

// TestDigestGolden pins the exact digest bytes. Store keys, cache keys
// and the router's shard placement are all these hex strings, so a
// change here orphans every stored verdict and reshuffles every shard.
func TestDigestGolden(t *testing.T) {
	src := goldenIR()
	if n := len(NormalizeIR(src)); n <= 2*digestChunk {
		t.Fatalf("golden IR normalizes to %d bytes, want more than two chunks", n)
	}
	small := "define i32 @main() {\n  ret i32 0\n}\n"
	cases := []struct {
		name, got, want string
	}{
		{"DigestIR/ir2vec-Os/long", DigestIR(stubDet{"IR2Vec+DT", passes.Os}, src),
			"8d7109fdf75f56f3f34ceb485a848348f4749add5567361611ed87a8c7a5c6d1"},
		{"DigestIR/gnn-O0/small", DigestIR(stubDet{"ProGraML+GATv2", passes.O0}, small),
			"64a5b134be23ca6011b1480b71a5e3e8efc95a4fefd9d99a6cc41707a8882636"},
		{"DigestIR/empty", DigestIR(stubDet{"IR2Vec+DT", passes.O2}, ""),
			"9657e5d074f854463d8a472975540f13432eefbc8bc700c88c4bb3dbc7808ffe"},
		{"DigestIRKeyed/tool", DigestIRKeyed("tool:must|ranks=2|steps=200000", src),
			"ebcadc120ffd7e50cca8a4ebd4cdc226c48a8b167a3b924cba9e25aa0a81b9a8"},
		{"DigestIRKeyed/analyze", DigestIRKeyed("analyze", small),
			"fb54ca1933fb0933ba4d07b92168f00b19201aa4c37c4330b0c30df9436c5cbc"},
		{"DigestIRKeyed/route", DigestIRKeyed("route|ir2vec", "\t"+strings.ReplaceAll(small, "\n", " \r\n;x\n")),
			"76b2d6a8e99e69d69d1b7a78da6d46b702bfb9abb0ee93ccb9443f015c014baa"},
		{"DigestProgram", DigestProgram(stubDet{"IR2Vec+DT", passes.Os}, goldenProgram()),
			"59cc92209ad85508133f51871281eba4de93cb21ddd38d5cef5f82193d308463"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
}
