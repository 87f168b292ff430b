// Allocation counts are not meaningful under the race detector, which
// adds its own bookkeeping allocations.

//go:build !race

package mpisim

import (
	"testing"

	"mpidetect/internal/ast"
	"mpidetect/internal/irgen"
)

// collectiveLoop is a two-rank program whose every iteration starts two
// persistent requests with MPI_Startall, waits for them, and runs two
// MPI_Barriers. (Collectives that move data allocate their scratch per
// call, which this program leaves out.)
func collectiveLoop(tb testing.TB, iters int64) *Program {
	tb.Helper()
	world := ast.Id("MPI_COMM_WORLD")
	elem := func(arr string, i int64) ast.Expr { return ast.Addr(ast.Idx(ast.Id(arr), ast.I(i))) }
	initReqs := func(op string, peer int64) []ast.Stmt {
		return []ast.Stmt{
			ast.CallS(op, elem("buf", 0), ast.I(1), ast.Id("MPI_INT"), ast.I(peer), ast.I(7), world, elem("reqs", 0)),
			ast.CallS(op, elem("buf", 1), ast.I(1), ast.Id("MPI_INT"), ast.I(peer), ast.I(8), world, elem("reqs", 1)),
		}
	}
	stmts := ast.MPIBoilerplate()
	stmts = append(stmts,
		ast.DeclArr("buf", 2, ast.Int),
		ast.DeclArr("reqs", 2, ast.Request),
		ast.IfElse(ast.Eq(ast.Id("rank"), ast.I(0)), initReqs("MPI_Send_init", 1), initReqs("MPI_Recv_init", 0)),
		ast.ForUp("it", 0, iters,
			ast.CallS("MPI_Startall", ast.I(2), ast.Id("reqs")),
			ast.CallS("MPI_Waitall", ast.I(2), ast.Id("reqs"), ast.Id("MPI_STATUSES_IGNORE")),
			ast.CallS("MPI_Barrier", world),
			ast.CallS("MPI_Barrier", world)),
		ast.CallS("MPI_Request_free", elem("reqs", 0)),
		ast.CallS("MPI_Request_free", elem("reqs", 1)),
		ast.Finalize(),
	)
	mod, err := irgen.Lower(ast.MainProgram("collloop", stmts...))
	if err != nil {
		tb.Fatalf("Lower: %v", err)
	}
	return Compile(mod)
}

// TestWarmCollectiveRunAllocsFlat pins the reuse of collective slots and
// the allocation-free walk of MPI_Startall's request array: a warm run
// allocates the same whatever the number of collective instances and
// persistent starts it performs. Allocating a slot, its members map and
// its order slice per collective, or a handle list per MPI_Startall,
// costs several allocations per iteration.
func TestWarmCollectiveRunAllocsFlat(t *testing.T) {
	warmAllocs := func(iters int64) float64 {
		prog := collectiveLoop(t, iters)
		res := prog.Run(Config{Ranks: 2}) // warm the pools
		if res.Erroneous() {
			t.Fatalf("%d iterations: run is erroneous: %+v", iters, res)
		}
		return testing.AllocsPerRun(20, func() { prog.Run(Config{Ranks: 2}) })
	}
	few, many := warmAllocs(4), warmAllocs(64)
	if many > few {
		t.Fatalf("a warm run allocates %.0f times at 64 iterations but %.0f at 4: collectives or MPI_Startall allocate per call", many, few)
	}
}
