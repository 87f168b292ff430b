package mpisim

import (
	"context"
	"runtime"
	"strings"
	"testing"

	ast "mpidetect/internal/ast"
	"mpidetect/internal/irgen"
	"mpidetect/internal/mpi"
)

// goroutineProbe samples runtime.NumGoroutine each time a run polls its
// context: once per scheduling round and every 1024 interpreter steps.
type goroutineProbe struct {
	context.Context
	samples []int
}

func (c *goroutineProbe) Err() error {
	c.samples = append(c.samples, runtime.NumGoroutine())
	return c.Context.Err()
}

// TestRunStartsNoGoroutine proves a run executes on the goroutine that
// calls RunCtx: while ranks exchange messages, deadlock, spin in a
// compute loop or crash, the goroutine count stays what it was before
// the run.
func TestRunStartsNoGoroutine(t *testing.T) {
	runs := []struct {
		prog *Program
		cfg  Config
	}{
		{benchModule(t), Config{Ranks: 8}},
		{Compile(irgen.MustLower(deadlockProgram())), Config{Ranks: 4}},
		{Compile(irgen.MustLower(spinProgram())), Config{Ranks: 3, MaxSteps: 5000}},
		{Compile(irgen.MustLower(crashProgram())), Config{Ranks: 2}},
	}
	for i, r := range runs {
		probe := &goroutineProbe{Context: context.Background()}
		base := runtime.NumGoroutine()
		r.prog.RunCtx(probe, r.cfg)
		if len(probe.samples) == 0 {
			t.Fatalf("run %d never polled its context", i)
		}
		for _, n := range probe.samples {
			if n != base {
				t.Fatalf("run %d: %d goroutines during the run, %d before it", i, n, base)
			}
		}
	}
}

// TestCallDepthExceededCrashes pins the interpreter's call-depth cap:
// unbounded recursion crashes every rank with the callee's name after the
// same number of steps.
func TestCallDepthExceededCrashes(t *testing.T) {
	f := ast.Fn("f", ast.Int, []*ast.ParamDecl{ast.P("n", ast.Int)},
		ast.Ret(ast.Call("f", ast.Add(ast.Id("n"), ast.I(1)))))
	main := ast.MainProgram("recurse", append(ast.MPIBoilerplate(),
		ast.CallS("f", ast.I(0)),
		ast.Finalize())...).Funcs[0]
	res := runProg(t, &ast.Program{Name: "recurse", Funcs: []*ast.FuncDecl{f, main}}, 2)
	if !res.Crashed || !strings.Contains(res.CrashMsg, "call depth exceeded in @f") {
		t.Fatalf("crashed=%v msg=%q, want a call-depth crash in @f", res.Crashed, res.CrashMsg)
	}
	if res.Steps != 1292 {
		t.Fatalf("steps = %d, want 1292", res.Steps)
	}
}

// TestWaitallDeadlockLeaksOnlyIncomplete pins MPI_Waitall's order: it
// completes its requests one by one and blocks on the first incomplete
// one, so a deadlock partway through reports a leak only for the
// requests it never completed. Rank 0 also resumes mid-Waitall once its
// receive is matched.
func TestWaitallDeadlockLeaksOnlyIncomplete(t *testing.T) {
	peer := ast.Sub(ast.I(1), ast.Id("rank"))
	req := func(i int64) ast.Expr { return ast.Addr(ast.Idx(ast.Id("reqs"), ast.I(i))) }
	stmts := append(ast.MPIBoilerplate(),
		ast.DeclArr("sbuf", 1, ast.Int),
		ast.DeclArr("rbuf", 1, ast.Int),
		ast.Decl("reqs", ast.ArrayOf(3, ast.Request), nil),
		ast.CallS("MPI_Isend", ast.Id("sbuf"), ast.I(1), ast.Id("MPI_INT"), peer, ast.I(1), world(), req(0)),
		ast.CallS("MPI_Irecv", ast.Id("rbuf"), ast.I(1), ast.Id("MPI_INT"), peer, ast.I(1), world(), req(1)),
		// Nobody receives tag 3, so this synchronous send never completes.
		ast.CallS("MPI_Issend", ast.Id("sbuf"), ast.I(1), ast.Id("MPI_INT"), peer, ast.I(3), world(), req(2)),
		ast.CallS("MPI_Waitall", ast.I(3), ast.Id("reqs"), ast.Id("MPI_STATUSES_IGNORE")),
		ast.Finalize())
	res := runProg(t, ast.MainProgram("waitall_deadlock", stmts...), 2)
	if !res.Deadlock {
		t.Fatalf("no deadlock: %+v", res)
	}
	var leaks []Violation
	for _, v := range res.Violations {
		if v.Kind == VResourceLeak {
			leaks = append(leaks, v)
		}
	}
	if len(leaks) != 2 || leaks[0].Op != mpi.OpIssend || leaks[1].Op != mpi.OpIssend ||
		leaks[0].Rank == leaks[1].Rank {
		t.Fatalf("leaks = %+v, want one MPI_Issend leak per rank", leaks)
	}
}
