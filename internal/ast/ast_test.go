package ast

import (
	"strings"
	"testing"
)

func sample() *Program {
	return MainProgram("sample",
		append(MPIBoilerplate(),
			DeclArr("buf", 4, Int),
			ForUp("i", 0, 4, Assign(Idx(Id("buf"), Id("i")), Mul(Id("i"), I(2)))),
			IfElse(Eq(Id("rank"), I(0)),
				[]Stmt{CallS("MPI_Send", Id("buf"), I(4), Id("MPI_INT"), I(1), I(3), Id("MPI_COMM_WORLD"))},
				[]Stmt{CallS("MPI_Recv", Id("buf"), I(4), Id("MPI_INT"), I(0), I(3), Id("MPI_COMM_WORLD"), Id("MPI_STATUS_IGNORE"))}),
			While(Lt(Id("rank"), I(0)), Assign(Id("rank"), Add(Id("rank"), I(1)))),
			Finalize(),
		)...)
}

func TestRenderCSyntax(t *testing.T) {
	out := RenderC(sample())
	for _, want := range []string{
		"#include <mpi.h>",
		"int main(void) {",
		"int buf[4];",
		"for (int i = 0; (i < 4); i = (i + 1)) {",
		"while ((rank < 0)) {",
		"MPI_Finalize();",
		"return 0;",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered C missing %q:\n%s", want, out)
		}
	}
}

func TestLineCountExpandsHeaders(t *testing.T) {
	p := sample()
	base := LineCount(p, map[string]int{"mpi.h": 1, "stdio.h": 1})
	inflated := LineCount(p, map[string]int{"mpi.h": 50, "stdio.h": 1})
	if inflated != base+49 {
		t.Errorf("header expansion wrong: %d vs %d", inflated, base)
	}
}

// ptr builds the pointer type *elem.
func ptr(elem *Type) *Type { return &Type{Kind: TPtr, Elem: elem} }

func TestTypeCNames(t *testing.T) {
	cases := map[*Type]string{
		Int:                          "int",
		Double:                       "double",
		ptr(Int):                     "int*",
		Request:                      "MPI_Request",
		{Kind: TMPIStatus}:           "MPI_Status",
		Comm:                         "MPI_Comm",
		Win:                          "MPI_Win",
		ptr(ptr(&Type{Kind: TChar})): "char**",
	}
	for ty, want := range cases {
		if got := ty.CName(); got != want {
			t.Errorf("CName = %q, want %q", got, want)
		}
	}
}

func TestRenderExprForms(t *testing.T) {
	cases := map[Expr]string{
		Add(I(1), I(2)):              "(1 + 2)",
		Idx(Id("a"), I(3)):           "a[3]",
		Addr(Id("x")):                "&x",
		&DerefExpr{X: Id("p")}:       "*p",
		&UnExpr{Op: "!", X: Id("b")}: "!(b)",
		S("hi"):                      `"hi"`,
		F(1.5):                       "1.5",
	}
	for e, want := range cases {
		if got := RenderExpr(e); got != want {
			t.Errorf("RenderExpr = %q, want %q", got, want)
		}
	}
}
