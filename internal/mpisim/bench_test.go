package mpisim

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"weak"

	ast "mpidetect/internal/ast"
	"mpidetect/internal/ir"
	"mpidetect/internal/irgen"
)

// benchModule is a small but representative program: rank-dependent
// control flow, a blocking exchange, printf, and a compute loop.
func benchModule(tb testing.TB) *Program {
	tb.Helper()
	stmts := ast.MPIBoilerplate()
	stmts = append(stmts,
		ast.DeclArr("buf", 8, ast.Int),
		ast.Decl("i", ast.Int, ast.I(0)),
		ast.While(ast.Lt(ast.Id("i"), ast.I(200)),
			ast.Assign(ast.Id("i"), ast.Add(ast.Id("i"), ast.I(1)))),
		ast.IfElse(ast.Eq(ast.Id("rank"), ast.I(0)),
			[]ast.Stmt{
				ast.Assign(ast.Idx(ast.Id("buf"), ast.I(0)), ast.I(42)),
				ast.CallS("MPI_Send", ast.Id("buf"), ast.I(8), ast.Id("MPI_INT"),
					ast.I(1), ast.I(7), ast.Id("MPI_COMM_WORLD")),
			},
			[]ast.Stmt{
				ast.If(ast.Eq(ast.Id("rank"), ast.I(1)), ast.Block(
					ast.CallS("MPI_Recv", ast.Id("buf"), ast.I(8), ast.Id("MPI_INT"),
						ast.I(0), ast.I(7), ast.Id("MPI_COMM_WORLD"), ast.Id("MPI_STATUS_IGNORE")),
					ast.CallS("printf", ast.S("got %d\n"), ast.Idx(ast.Id("buf"), ast.I(0))))),
			}),
		ast.Finalize(),
	)
	mod, err := irgen.Lower(ast.MainProgram("simbench", stmts...))
	if err != nil {
		tb.Fatalf("Lower: %v", err)
	}
	return Compile(mod)
}

// BenchmarkSimCompile measures the compile-once pre-pass in isolation:
// the cost every cold /analyze request pays once, since serving compiles
// a fresh Program per request (warm repeats are answered by the
// tool-verdict cache before any compile).
func BenchmarkSimCompile(b *testing.B) {
	mod := benchModule(b).Mod()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := Compile(mod); p.main == nil {
			b.Fatal("no main")
		}
	}
}

// BenchmarkSimRunWarm measures a warm simulated run of a pre-compiled
// program: a Runtime from the free list of whole runs (rank procs,
// machines, frames and arena memory already built) stepped by the
// scheduler's driver loop. Every program shares that free
// list, so this is also the cost of a fresh program's first run, the one
// simulation an /analyze request makes (TestFreshProgramRunReusesPool).
func BenchmarkSimRunWarm(b *testing.B) {
	prog := benchModule(b)
	prog.Run(Config{Ranks: 2}) // warm the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := prog.Run(Config{Ranks: 2})
		if res.Erroneous() {
			b.Fatalf("erroneous: %+v", res.Violations)
		}
	}
}

// BenchmarkSimRunWarm8 is the same steady state at an 8-rank world.
func BenchmarkSimRunWarm8(b *testing.B) {
	prog := benchModule(b)
	prog.Run(Config{Ranks: 8})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := prog.Run(Config{Ranks: 8})
		if res.Deadlock {
			b.Fatal("deadlock")
		}
	}
}

// TestWarmRunAllocsBounded pins the pooling contract: a warm run of a
// pre-compiled program must not allocate per frame, per memory object,
// or per message — only the small fixed set of per-run objects (the
// Result and its output) remains. The bound is deliberately tight; if it
// regresses, something stopped being pooled.
func TestWarmRunAllocsBounded(t *testing.T) {
	prog := benchModule(t)
	prog.Run(Config{Ranks: 2}) // warm the pools
	allocs := testing.AllocsPerRun(20, func() {
		prog.Run(Config{Ranks: 2})
	})
	// Measured 4 on go1.24 (the Result and its output string); 60 leaves
	// headroom without letting frame-per-call or object-per-alloca churn
	// (hundreds per run) sneak back in.
	if allocs > 60 {
		t.Fatalf("warm run allocates %.0f times; pooling regressed (want <= 60)", allocs)
	}
}

// TestOutputCapTruncates pins the per-rank printf cap: a program that
// prints without bound must produce a truncated, marker-terminated
// stream and an OutputTruncated result — and its verdict must stay
// exactly what it would have been (clean completion here).
func TestOutputCapTruncates(t *testing.T) {
	stmts := ast.MPIBoilerplate()
	stmts = append(stmts,
		ast.Decl("i", ast.Int, ast.I(0)),
		ast.While(ast.Lt(ast.Id("i"), ast.I(4000)),
			ast.CallS("printf", ast.S("0123456789012345678901234567890123456789\n")),
			ast.Assign(ast.Id("i"), ast.Add(ast.Id("i"), ast.I(1)))),
		ast.Finalize(),
	)
	mod, err := irgen.Lower(ast.MainProgram("spam", stmts...))
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	res := Compile(mod).Run(Config{Ranks: 2, MaxSteps: 1 << 20})
	if !res.OutputTruncated {
		t.Fatalf("output not marked truncated (len %d)", len(res.Output))
	}
	if !strings.Contains(res.Output, truncationMarker) {
		t.Fatal("truncation marker missing")
	}
	// Two ranks, each capped at maxRankOutput plus the marker.
	if max := 2 * (maxRankOutput + len(truncationMarker)); len(res.Output) > max {
		t.Fatalf("output %d bytes exceeds the cap envelope %d", len(res.Output), max)
	}
	if res.Erroneous() {
		t.Fatalf("truncation must not change the verdict: %+v", res.Violations)
	}
}

// TestAllocaOverflowCrashes pins a bit-exactness edge of the arena: an
// alloca whose size*count overflows int must crash the run with the
// same makeslice panic the pre-arena engine produced — not silently
// hand back an empty object and a clean verdict.
func TestAllocaOverflowCrashes(t *testing.T) {
	mod := ir.NewModule("overflow")
	f := &ir.Func{Name: "main", Sig: ir.FuncOf(ir.Void)}
	mod.AddFunc(f)
	b := &ir.Block{Name: "entry", Parent: f}
	f.Blocks = []*ir.Block{b}
	b.Append(&ir.Instr{Op: ir.OpAlloca, Name: "p", AllocTy: ir.I64,
		Typ: ir.PtrTo(ir.I64), Args: []ir.Value{ir.ConstInt(ir.I64, 1<<60)}})
	b.Append(&ir.Instr{Op: ir.OpRet})
	res := Compile(mod).Run(Config{Ranks: 1})
	if !res.Crashed {
		t.Fatalf("overflowing alloca did not crash: %+v", res)
	}
	if !strings.Contains(res.CrashMsg, "makeslice: len out of range") {
		t.Fatalf("crash message diverged from the old engine: %q", res.CrashMsg)
	}
}

// TestDeclOnlyMainReproducesNilEntryPanic pins the other edge: a module
// whose main is a declaration (or defined with no blocks and no
// parameters — a zero-slot frame) must still crash with the old
// engine's nil-entry diagnostic, not an arena index panic.
func TestDeclOnlyMainReproducesNilEntryPanic(t *testing.T) {
	mod := ir.NewModule("declmain")
	mod.AddFunc(&ir.Func{Name: "main", Sig: ir.FuncOf(ir.Void), Decl: true})
	res := Compile(mod).Run(Config{Ranks: 1})
	if !res.Crashed {
		t.Fatalf("declaration-only main did not crash: %+v", res)
	}
	if !strings.Contains(res.CrashMsg, "invalid memory address or nil pointer dereference") {
		t.Fatalf("crash message diverged from the old engine: %q", res.CrashMsg)
	}
}

// TestMemObjPtrsLazy pins the lazy shadow map: plain byte storage never
// allocates the pointer map, and pointer stores allocate it on first
// use.
func TestMemObjPtrsLazy(t *testing.T) {
	rt := takeRuntime(1)
	defer rt.recycle()
	o := rt.newMemObj("%t", 16, 0)
	if o.Ptrs != nil {
		t.Fatal("fresh MemObj allocated its pointer map eagerly")
	}
	if err := o.store(0, ir.I32, RV{I: 7}); err != nil {
		t.Fatal(err)
	}
	if o.Ptrs != nil {
		t.Fatal("scalar store allocated the pointer map")
	}
	target := rt.newMemObj("%u", 8, 0)
	ptrTy := ir.PtrTo(ir.I32)
	if err := o.store(8, ptrTy, RV{P: rt.newPtr(target, 0)}); err != nil {
		t.Fatal(err)
	}
	if o.Ptrs == nil {
		t.Fatal("pointer store did not allocate the shadow map")
	}
	if v, err := o.load(8, ptrTy); err != nil || v.P == nil || v.P.Obj != target {
		t.Fatalf("pointer round-trip failed: %+v, %v", v, err)
	}
}

// TestFreshProgramRunReusesPool pins the free list of whole runs. A
// freshly compiled program's first run borrows the rank procs, machines
// and arena an earlier run of another program left behind, so it
// allocates no more than a warm run may (TestWarmRunAllocsBounded's
// ceiling). And a returned Runtime keeps no reference to the program it
// ran, so a dropped Program is collected.
func TestFreshProgramRunReusesPool(t *testing.T) {
	mod := benchModule(t).Mod()
	other := irgen.MustLower(crashProgram())
	// The free list is FIFO: one 16-rank run per entry leaves every
	// pooled Runtime with 16 procs built.
	for i := 0; i < maxFreeRuns; i++ {
		Run(other, Config{Ranks: 16})
	}
	progs := make([]*Program, 10)
	for i := range progs {
		progs[i] = Compile(mod)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for _, prog := range progs {
		prog.Run(Config{Ranks: 16})
	}
	runtime.ReadMemStats(&ms)
	if allocs := (ms.Mallocs - before) / uint64(len(progs)); allocs > 60 {
		t.Fatalf("first run of a fresh program allocates %d times; the run free list regressed (want <= 60)", allocs)
	}

	prog := Compile(mod)
	prog.Run(Config{Ranks: 16})
	wp := weak.Make(prog)
	prog = nil
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("a Program stayed reachable after its run: the free list keeps a reference to it")
	}
}

// TestConcurrentRunsMatchSerial runs several programs from several
// goroutines at once, so Runtimes pass between programs and goroutines
// through the shared free list, and requires each result to equal the
// program's serial one. Run it under -race.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	type job struct {
		prog *Program
		cfg  Config
	}
	jobs := []job{
		{benchModule(t), Config{Ranks: 16}},
		{Compile(irgen.MustLower(deadlockProgram())), Config{Ranks: 4}},
		{Compile(irgen.MustLower(crashProgram())), Config{Ranks: 2}},
		{Compile(irgen.MustLower(spinProgram())), Config{Ranks: 3, MaxSteps: 5000}},
	}
	want := make([]*Result, len(jobs))
	for i, j := range jobs {
		want[i] = j.prog.Run(j.cfg)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				i := (g + k) % len(jobs)
				if got := jobs[i].prog.Run(jobs[i].cfg); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("job %d: concurrent run %+v differs from serial run %+v", i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
