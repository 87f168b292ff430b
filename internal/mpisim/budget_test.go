package mpisim

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	ast "mpidetect/internal/ast"
	"mpidetect/internal/irgen"
)

// spinProgram burns ~8 billion interpreter steps without ever blocking
// on MPI: the worst case for cooperative cancellation, since only the
// interpreter's periodic stop check can abort it.
func spinProgram() *ast.Program {
	return ast.MainProgram("spin",
		append(ast.MPIBoilerplate(),
			ast.Decl("x", ast.Int, ast.I(0)),
			ast.While(ast.Lt(ast.Id("x"), ast.I(2_000_000_000)),
				ast.Assign(ast.Id("x"), ast.Add(ast.Id("x"), ast.I(1)))),
			ast.Finalize(),
		)...)
}

// deadlockProgram has every rank Recv before Send: an immediate global stall.
func deadlockProgram() *ast.Program {
	return ast.MainProgram("deadlock",
		append(ast.MPIBoilerplate(),
			ast.DeclArr("buf", 4, ast.Int),
			ast.CallS("MPI_Recv", ast.Id("buf"), ast.I(4), ast.Id("MPI_INT"), ast.Sub(ast.I(1), ast.Id("rank")), ast.I(3),
				world(), ast.Id("MPI_STATUS_IGNORE")),
			ast.CallS("MPI_Send", ast.Id("buf"), ast.I(4), ast.Id("MPI_INT"), ast.Sub(ast.I(1), ast.Id("rank")), ast.I(3),
				world()),
			ast.Finalize(),
		)...)
}

// crashProgram divides by zero on every rank.
func crashProgram() *ast.Program {
	return ast.MainProgram("crash",
		append(ast.MPIBoilerplate(),
			ast.Decl("z", ast.Int, ast.I(0)),
			ast.Decl("y", ast.Int, ast.Bin("/", ast.I(1), ast.Id("z"))),
			ast.CallS("printf", ast.S("%d\n"), ast.Id("y")),
			ast.Finalize(),
		)...)
}

func TestWallBudgetSurfacesAsTimeout(t *testing.T) {
	mod := irgen.MustLower(spinProgram())
	start := time.Now()
	res := Run(mod, Config{Ranks: 2, MaxSteps: 1 << 40, WallBudget: 30 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("wall budget of 30ms took %s to trip", elapsed)
	}
	if !res.Timeout {
		t.Fatalf("wall-budget run did not report Timeout: %+v", res)
	}
	if res.Canceled {
		t.Fatalf("wall-budget run misreported as Canceled")
	}
}

func TestCancelAbortsRunPromptly(t *testing.T) {
	mod := irgen.MustLower(spinProgram())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res := RunCtx(ctx, mod, Config{Ranks: 2, MaxSteps: 1 << 40})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %s to abort the run", elapsed)
	}
	if !res.Canceled {
		t.Fatalf("canceled run did not report Canceled: %+v", res)
	}
	if res.Timeout {
		t.Fatalf("cancellation misreported as Timeout")
	}
	if res.Erroneous() {
		t.Fatalf("canceled run of a correct program reported errors: %+v", res.Violations)
	}
}

func TestCancelBeforeStart(t *testing.T) {
	mod := irgen.MustLower(spinProgram())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := RunCtx(ctx, mod, Config{Ranks: 2, MaxSteps: 1 << 40})
	if !res.Canceled {
		t.Fatalf("pre-canceled run did not report Canceled: %+v", res)
	}
}

// TestGoroutineHygiene asserts that runs leave the goroutine count where
// it was — after deadlocks, crashes, step-budget timeouts, wall-budget
// timeouts, and cancellations — so a serving process running many
// simulations never accumulates goroutines. A run starts none
// (TestRunStartsNoGoroutine checks that while it is in flight); this
// pins the aborted paths too.
func TestGoroutineHygiene(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()

	scenarios := []struct {
		name string
		run  func()
	}{
		{"deadlock", func() {
			Run(irgen.MustLower(deadlockProgram()), Config{Ranks: 2})
		}},
		{"crash", func() {
			Run(irgen.MustLower(crashProgram()), Config{Ranks: 2})
		}},
		{"step-timeout", func() {
			Run(irgen.MustLower(spinProgram()), Config{Ranks: 2, MaxSteps: 5000})
		}},
		{"wall-timeout", func() {
			Run(irgen.MustLower(spinProgram()),
				Config{Ranks: 2, MaxSteps: 1 << 40, WallBudget: 5 * time.Millisecond})
		}},
		{"canceled", func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			defer cancel()
			RunCtx(ctx, irgen.MustLower(spinProgram()), Config{Ranks: 2, MaxSteps: 1 << 40})
		}},
	}
	for _, sc := range scenarios {
		for i := 0; i < 8; i++ {
			sc.run()
		}
	}

	waitGoroutines(t, base)
}

// TestUnknownDerivedDatatypeReported: a receive posted with a derived
// datatype id that was never created must produce a use-of-unknown-
// datatype violation, not a silent 4-byte size guess — the old guess
// fabricated a truncation verdict here (8 sent bytes vs a guessed 4-byte
// capacity) while masking real mismatches elsewhere.
func TestUnknownDerivedDatatypeReported(t *testing.T) {
	prog := ast.MainProgram("unknown_dtype",
		append(ast.MPIBoilerplate(),
			ast.DeclArr("buf", 4, ast.Int),
			ast.IfElse(ast.Eq(ast.Id("rank"), ast.I(0)),
				[]ast.Stmt{ast.CallS("MPI_Send", ast.Id("buf"), ast.I(2), ast.Id("MPI_INT"), ast.I(1), ast.I(5), world())},
				[]ast.Stmt{ast.CallS("MPI_Recv", ast.Id("buf"), ast.I(1), ast.I(150), ast.I(0), ast.I(5),
					world(), ast.Id("MPI_STATUS_IGNORE"))}),
			ast.Finalize(),
		)...)
	res := runProg(t, prog, 2)
	if res.Has(VTruncation) {
		t.Fatalf("truncation verdict fabricated from a guessed datatype size: %+v", res.Violations)
	}
	if !res.Has(VInvalidParam) {
		t.Fatalf("unknown derived datatype not reported: %+v", res.Violations)
	}
	// One invalid-parameter diagnostic names the bad datatype (call-site
	// validation and the delivery-time check dedupe onto one violation).
	found := false
	for _, v := range res.Violations {
		if v.Kind == VInvalidParam && strings.Contains(v.Msg, "150") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no diagnostic naming datatype 150 in %+v", res.Violations)
	}
}
