// Allocation counts are not meaningful under the race detector, which
// adds its own bookkeeping allocations.

//go:build !race

package mpisim

import (
	"runtime"
	"strings"
	"testing"

	"mpidetect/internal/ast"
	"mpidetect/internal/irgen"
)

// collectiveLoop is a two-rank program whose every iteration starts two
// persistent requests with MPI_Startall, waits for them, runs two
// MPI_Barriers, moves data through every blocking collective that moves
// data (MPI_Reduce, MPI_Allreduce, MPI_Scan, MPI_Exscan, MPI_Bcast,
// MPI_Gather, MPI_Scatter, MPI_Allgather, MPI_Alltoall), and completes
// MPI_Ibarrier, MPI_Ibcast and MPI_Iallreduce with MPI_Wait.
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
		ast.DeclArr("out", 2, ast.Int),
		ast.DeclArr("reqs", 2, ast.Request),
		ast.Decl("creq", ast.Request, nil),
		ast.IfElse(ast.Eq(ast.Id("rank"), ast.I(0)), initReqs("MPI_Send_init", 1), initReqs("MPI_Recv_init", 0)),
		ast.ForUp("it", 0, iters,
			ast.CallS("MPI_Startall", ast.I(2), ast.Id("reqs")),
			ast.CallS("MPI_Waitall", ast.I(2), ast.Id("reqs"), ast.Id("MPI_STATUSES_IGNORE")),
			ast.CallS("MPI_Barrier", world),
			ast.CallS("MPI_Barrier", world),
			ast.CallS("MPI_Reduce", elem("buf", 0), elem("out", 0), ast.I(2), ast.Id("MPI_INT"), ast.Id("MPI_SUM"), ast.I(0), world),
			ast.CallS("MPI_Allreduce", elem("buf", 0), elem("out", 0), ast.I(2), ast.Id("MPI_INT"), ast.Id("MPI_MAX"), world),
			ast.CallS("MPI_Scan", elem("buf", 0), elem("out", 0), ast.I(2), ast.Id("MPI_INT"), ast.Id("MPI_SUM"), world),
			ast.CallS("MPI_Exscan", elem("buf", 0), elem("out", 0), ast.I(2), ast.Id("MPI_INT"), ast.Id("MPI_SUM"), world),
			ast.CallS("MPI_Bcast", elem("out", 0), ast.I(2), ast.Id("MPI_INT"), ast.I(0), world),
			ast.CallS("MPI_Gather", elem("buf", 0), ast.I(1), ast.Id("MPI_INT"), elem("out", 0), ast.I(1), ast.Id("MPI_INT"), ast.I(0), world),
			ast.CallS("MPI_Scatter", elem("buf", 0), ast.I(1), ast.Id("MPI_INT"), elem("out", 0), ast.I(1), ast.Id("MPI_INT"), ast.I(0), world),
			ast.CallS("MPI_Allgather", elem("buf", 0), ast.I(1), ast.Id("MPI_INT"), elem("out", 0), ast.I(1), ast.Id("MPI_INT"), world),
			ast.CallS("MPI_Alltoall", elem("buf", 0), ast.I(1), ast.Id("MPI_INT"), elem("out", 0), ast.I(1), ast.Id("MPI_INT"), world),
			ast.CallS("MPI_Ibarrier", world, ast.Addr(ast.Id("creq"))),
			ast.CallS("MPI_Wait", ast.Addr(ast.Id("creq")), ast.Id("MPI_STATUS_IGNORE")),
			ast.CallS("MPI_Ibcast", elem("out", 0), ast.I(2), ast.Id("MPI_INT"), ast.I(0), world, ast.Addr(ast.Id("creq"))),
			ast.CallS("MPI_Wait", ast.Addr(ast.Id("creq")), ast.Id("MPI_STATUS_IGNORE")),
			ast.CallS("MPI_Iallreduce", elem("buf", 0), elem("out", 0), ast.I(2), ast.Id("MPI_INT"), ast.Id("MPI_SUM"), world, ast.Addr(ast.Id("creq"))),
			ast.CallS("MPI_Wait", ast.Addr(ast.Id("creq")), ast.Id("MPI_STATUS_IGNORE"))),
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

// TestWarmCollectiveRunAllocsFlat pins the reuse of collective slots,
// the allocation-free walk of MPI_Startall's request array and the
// run-scoped scratch of the collectives that move data: a warm run
// allocates the same whatever the number of collective instances and
// persistent starts it performs. Allocating a slot, its members map and
// its order slice per collective, a handle list per MPI_Startall, or
// accumulators or a broadcast copy per reduction, scan or broadcast,
// costs several allocations per iteration, and so does a request or a
// status per nonblocking collective.
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

// allreduceOneInt is a two-rank MPI_Allreduce of one int per rank, with
// count claiming count ints.
func allreduceOneInt(tb testing.TB, count int64) *Program {
	tb.Helper()
	stmts := ast.MPIBoilerplate()
	stmts = append(stmts,
		ast.Decl("x", ast.Int, ast.Add(ast.Id("rank"), ast.I(1))),
		ast.Decl("y", ast.Int, ast.I(0)),
		ast.CallS("MPI_Allreduce", ast.Addr(ast.Id("x")), ast.Addr(ast.Id("y")), ast.I(count),
			ast.Id("MPI_INT"), ast.Id("MPI_SUM"), ast.Id("MPI_COMM_WORLD")),
		ast.CallS("printf", ast.S("%d\n"), ast.Id("y")),
		ast.Finalize(),
	)
	mod, err := irgen.Lower(ast.MainProgram("allreduce1", stmts...))
	if err != nil {
		tb.Fatalf("Lower: %v", err)
	}
	return Compile(mod)
}

// TestCollectiveScratchBoundedByBuffers pins that a reduction's scratch
// is sized by the buffers, not by the count argument: an MPI_Allreduce
// on a one-int buffer allocates the same host bytes whether it claims 1
// or 2^20 elements, and computes the same sum.
func TestCollectiveScratchBoundedByBuffers(t *testing.T) {
	warmBytes := func(count int64) (uint64, string) {
		prog := allreduceOneInt(t, count)
		res := prog.Run(Config{Ranks: 2}) // warm the pools
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			prog.Run(Config{Ranks: 2})
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs, res.Output
	}
	one, outOne := warmBytes(1)
	huge, outHuge := warmBytes(1 << 20)
	if outOne != outHuge {
		t.Fatalf("count 2^20 prints %q, count 1 prints %q", outHuge, outOne)
	}
	// The slack absorbs stray allocations of other goroutines (the
	// finalizer goroutine, runtime internals) inside the window; scratch
	// sized by the count costs megabytes.
	const slack = 4 << 10
	if huge > one+slack {
		t.Fatalf("a warm run allocates %d bytes at count 2^20 but %d at count 1: collective scratch is sized by the count", huge, one)
	}
}

// TestCollectiveScratchWithinRunCap pins that collective scratch counts
// against the run's memory cap. An MPI_BYTE MPI_Allreduce over two 6 MiB
// buffers per rank (24 MiB of simulated memory) needs an 8-byte
// accumulator element per byte, 48 MiB, more than the run has left; an
// MPI_Bcast of a 24 MiB buffer per rank needs a 24 MiB copy on top of
// 48 MiB. Each crashes the rank with the cap's message instead of
// growing the host past the cap.
func TestCollectiveScratchWithinRunCap(t *testing.T) {
	const ints = 1 << 20 / 4 // ints in 1 MiB
	world := ast.Id("MPI_COMM_WORLD")
	for _, tc := range []struct {
		name  string
		stmts []ast.Stmt
	}{
		{"allreduce", []ast.Stmt{
			ast.DeclArr("in", 6*ints, ast.Int),
			ast.DeclArr("out", 6*ints, ast.Int),
			ast.CallS("MPI_Allreduce", ast.Id("in"), ast.Id("out"), ast.I(6<<20),
				ast.Id("MPI_BYTE"), ast.Id("MPI_SUM"), world),
		}},
		{"bcast", []ast.Stmt{
			ast.DeclArr("buf", 24*ints, ast.Int),
			ast.CallS("MPI_Bcast", ast.Id("buf"), ast.I(24*ints), ast.Id("MPI_INT"), ast.I(0), world),
		}},
	} {
		stmts := append(ast.MPIBoilerplate(), tc.stmts...)
		mod, err := irgen.Lower(ast.MainProgram(tc.name, append(stmts, ast.Finalize())...))
		if err != nil {
			t.Fatalf("%s: Lower: %v", tc.name, err)
		}
		prog := Compile(mod)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := prog.Run(Config{Ranks: 2})
		runtime.ReadMemStats(&after)
		if !res.Crashed || !strings.HasSuffix(res.CrashMsg, errRunMemory.msg) {
			t.Errorf("%s: crashed %v, %q; want a crash with %q", tc.name, res.Crashed, res.CrashMsg, errRunMemory.msg)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > maxRunMemory+1<<20 {
			t.Errorf("%s: the run allocated %d MiB of host memory, past the %d MiB cap", tc.name, got>>20, maxRunMemory>>20)
		}
	}
}
