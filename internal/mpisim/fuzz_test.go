package mpisim

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	ast "mpidetect/internal/ast"
	"mpidetect/internal/ir"
	"mpidetect/internal/irgen"
)

// fuzzSimSteps is FuzzSimulate's per-rank step budget: small enough that
// a mutated loop resolves in milliseconds, large enough that the seed
// programs run to completion.
const fuzzSimSteps = 20_000

// waitGoroutines fails the test unless the goroutine count falls back to
// base within 10 s, so a goroutine the test binary itself is still
// tearing down cannot fail it.
func waitGoroutines(t testing.TB, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", base, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// FuzzSimulate runs any IR that parses and verifies at 2 and 4 ranks
// under a small step budget and no wall budget. Every run must return
// without a panic escaping RunCtx, give the same Result (flags,
// violations, steps, output) when repeated, and leave the goroutine
// count where it was before the run.
func FuzzSimulate(f *testing.F) {
	f.Add(ir.Print(benchModule(f).Mod()))
	for _, p := range []func() *ast.Program{deadlockProgram, crashProgram, spinProgram} {
		f.Add(ir.Print(irgen.MustLower(p())))
	}
	// A few MBI and CorrBench programs, deadlocking ones among them.
	corpus := goldenCorpus()
	for i := 0; i < len(corpus); i += len(corpus) / 8 {
		if mod, err := irgen.Lower(corpus[i].Prog); err == nil {
			f.Add(ir.Print(mod))
		}
	}
	for _, src := range oversizedPrograms {
		f.Add(src)
	}
	// An MPI call with fewer arguments than its routine takes.
	f.Add(shortCallIR(f, "MPI_Send", 2))
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<15 {
			return
		}
		mod, err := ir.Parse(src)
		if err != nil || mod.Verify() != nil {
			return
		}
		prog := Compile(mod)
		for _, ranks := range []int{2, 4} {
			cfg := Config{Ranks: ranks, MaxSteps: fuzzSimSteps}
			base := runtime.NumGoroutine()
			first := prog.Run(cfg)
			waitGoroutines(t, base)
			if again := prog.Run(cfg); !reflect.DeepEqual(first, again) {
				t.Fatalf("%d ranks: two runs differ\nfirst:  %+v\nsecond: %+v\ninput:\n%s", ranks, first, again, src)
			}
			waitGoroutines(t, base)
		}
	})
}

// oversizedPrograms ask for more memory than a run may take: a 4 GB
// alloca, a 4 MB alloca per loop iteration, an 8 GB global, and a global
// whose size overflows int. Each once either exhausted the host or
// panicked out of RunCtx (the last, from a rank's global initialisation
// on the caller's goroutine).
var oversizedPrograms = []string{
	"define i32 @main() {\nentry:\n  %p = alloca i32, i64 1000000000\n  ret i32 0\n}\n",
	"define i32 @main() {\nentry:\n  br label %l\nl:\n  %p = alloca i32, i64 1000000\n  br label %l\n}\n",
	"@g = global [1000000000 x i64] zeroinitializer\n\ndefine i32 @main() {\nentry:\n  ret i32 0\n}\n",
	"@g = global [1152921504606846977 x i64] zeroinitializer\n\ndefine i32 @main() {\nentry:\n  ret i32 0\n}\n",
}

// TestOversizedProgramsCrash pins oversizedPrograms: each run returns a
// crash verdict instead of allocating what it asked for.
func TestOversizedProgramsCrash(t *testing.T) {
	want := []string{"simulated memory exceeds 64 MiB", "simulated memory exceeds 64 MiB",
		"simulated memory exceeds 64 MiB", "interpreter panic: runtime error: makeslice: len out of range"}
	for i, src := range oversizedPrograms {
		res := Compile(ir.MustParse(src)).Run(Config{Ranks: 2, MaxSteps: fuzzSimSteps})
		if !res.Crashed || res.CrashMsg != "rank 0: "+want[i] {
			t.Errorf("program %d: crashed %v, %q; want a crash with %q", i, res.Crashed, res.CrashMsg, want[i])
		}
	}
}
