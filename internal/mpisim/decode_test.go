package mpisim

import (
	"fmt"
	goast "go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"

	ast "mpidetect/internal/ast"
	"mpidetect/internal/ir"
	"mpidetect/internal/irgen"
	"mpidetect/internal/mpi"
)

// shortCallIR is a two-rank program whose last call of routine passes
// only its first keep arguments, printed as textual IR. Lowering never
// emits such a call, so the program is lowered whole and the call cut
// afterwards.
func shortCallIR(t testing.TB, routine string, keep int) string {
	t.Helper()
	full := map[string]ast.Stmt{
		"MPI_Send": ast.CallS("MPI_Send", ast.Id("buf"), ast.I(1), ast.Id("MPI_INT"), ast.I(1), ast.I(0), world()),
		"MPI_Recv": ast.CallS("MPI_Recv", ast.Id("buf"), ast.I(1), ast.Id("MPI_INT"), ast.I(0), ast.I(0), world(),
			ast.Id("MPI_STATUS_IGNORE")),
		"MPI_Comm_rank": ast.CallS("MPI_Comm_rank", world(), ast.Addr(ast.Id("rank"))),
		"MPI_Barrier":   ast.CallS("MPI_Barrier", world()),
	}[routine]
	stmts := append(ast.MPIBoilerplate(), ast.DeclArr("buf", 1, ast.Int), full, ast.Finalize())
	mod := irgen.MustLower(ast.MainProgram("short", stmts...))
	var last *ir.Instr
	for _, b := range mod.FuncByName("main").Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall && in.Callee == routine {
				last = in
			}
		}
	}
	last.Args = last.Args[:keep]
	return ir.Print(mod)
}

// TestMPICallArity pins what a call site does whose argument count is
// not its routine's: its rank crashes when the call executes, with the
// message lowering gives for such a call.
func TestMPICallArity(t *testing.T) {
	for _, c := range []struct {
		routine string
		keep    int
	}{{"MPI_Send", 2}, {"MPI_Recv", 6}, {"MPI_Comm_rank", 1}, {"MPI_Barrier", 0}} {
		op, _ := mpi.FromName(c.routine)
		want := fmt.Sprintf("rank 0: %s expects %d args, got %d", c.routine, len(mpi.SignatureOf(op).Params), c.keep)
		res := Run(ir.MustParse(shortCallIR(t, c.routine, c.keep)), Config{Ranks: 2})
		if !res.Crashed || res.CrashMsg != want {
			t.Errorf("%s with %d args: crashed %v, %q; want a crash with %q", c.routine, c.keep, res.Crashed, res.CrashMsg, want)
		}
	}
}

// positionalFiles are the files of the MPI handlers.
var positionalFiles = []string{"p2p.go", "coll.go", "rma.go", "runtime.go", "checks.go"}

// TestNoPositionalMPIArgs keeps the MPI handlers decoding every argument
// by its role in the routines table: in positionalFiles, no []RV is
// indexed by an integer literal, and no integer literal is passed as an
// argument position (a parameter named idx or ending in Idx). A []RV is
// a name declared with that type, or one a := binds to such a name.
func TestNoPositionalMPIArgs(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	files := pkgs["mpisim"].Files
	rvs := map[string]bool{}        // names of []RV values
	positions := map[string][]int{} // function name -> its position parameters
	isRVs := func(e goast.Expr) bool {
		switch x := e.(type) {
		case *goast.Ident:
			return rvs[x.Name]
		case *goast.SelectorExpr:
			return rvs[x.Sel.Name]
		}
		return false
	}
	declare := func(names []*goast.Ident, typ goast.Expr) {
		if at, ok := typ.(*goast.ArrayType); ok && at.Len == nil {
			if elt, ok := at.Elt.(*goast.Ident); ok && elt.Name == "RV" {
				for _, n := range names {
					rvs[n.Name] = true
				}
			}
		}
	}
	for _, f := range files {
		goast.Inspect(f, func(n goast.Node) bool {
			switch x := n.(type) {
			case *goast.Field:
				declare(x.Names, x.Type)
			case *goast.ValueSpec:
				declare(x.Names, x.Type)
			case *goast.FuncDecl:
				i := 0
				for _, field := range x.Type.Params.List {
					for _, name := range field.Names {
						if name.Name == "idx" || strings.HasSuffix(name.Name, "Idx") {
							positions[x.Name.Name] = append(positions[x.Name.Name], i)
						}
						i++
					}
				}
			}
			return true
		})
	}
	for _, f := range files {
		goast.Inspect(f, func(n goast.Node) bool {
			if as, ok := n.(*goast.AssignStmt); ok && as.Tok == token.DEFINE && len(as.Lhs) == len(as.Rhs) {
				for i, rhs := range as.Rhs {
					if id, ok := as.Lhs[i].(*goast.Ident); ok && isRVs(rhs) {
						rvs[id.Name] = true
					}
				}
			}
			return true
		})
	}
	intLit := func(e goast.Expr) bool {
		for {
			switch x := e.(type) {
			case *goast.ParenExpr:
				e = x.X
			case *goast.UnaryExpr:
				e = x.X
			case *goast.BasicLit:
				return x.Kind == token.INT
			default:
				return false
			}
		}
	}
	checked := 0
	for path, f := range files {
		name := path[strings.LastIndex(path, "/")+1:]
		if !strings.Contains(" "+strings.Join(positionalFiles, " ")+" ", " "+name+" ") {
			continue
		}
		checked++
		goast.Inspect(f, func(n goast.Node) bool {
			switch x := n.(type) {
			case *goast.IndexExpr:
				if isRVs(x.X) && intLit(x.Index) {
					t.Errorf("%s: an argument read by position; read it by its role", fset.Position(x.Pos()))
				}
			case *goast.CallExpr:
				callee := ""
				switch fn := x.Fun.(type) {
				case *goast.Ident:
					callee = fn.Name
				case *goast.SelectorExpr:
					callee = fn.Sel.Name
				}
				for _, i := range positions[callee] {
					if i < len(x.Args) && intLit(x.Args[i]) {
						t.Errorf("%s: a literal argument position passed to %s; pass the role", fset.Position(x.Args[i].Pos()), callee)
					}
				}
			}
			return true
		})
	}
	if checked != len(positionalFiles) {
		t.Fatalf("checked %d of the %d handler files", checked, len(positionalFiles))
	}
}
