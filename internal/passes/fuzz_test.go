package passes_test

import (
	"testing"

	"mpidetect/internal/ir"
	"mpidetect/internal/passes"
)

// FuzzOptimize runs the -O2 and -Os pipelines over any IR that parses and
// verifies. Each run must finish without panicking, leave a module that
// still verifies, print IR that re-parses, and print the same text for
// two fresh parses of the input: the optimiser may depend only on the
// module it is given. Each module is released once printed, so the
// second parse runs in the arena the first one released. Seeds are
// corpus programs plus hand-written CFG shapes the generators never emit.
func FuzzOptimize(f *testing.F) {
	for _, src := range benchSources(f, 24) {
		f.Add(src)
	}
	// Unreachable cycle, self loop, critical edge into a phi.
	f.Add("define i32 @f(i1 %c) {\nentry:\n  %x = alloca i32\n  store i32 1, i32* %x\n  br i1 %c, label %a, label %b\na:\n  store i32 2, i32* %x\n  br label %b\nb:\n  %v = load i32, i32* %x\n  ret i32 %v\ndead:\n  br label %dead2\ndead2:\n  br label %dead\n}\n")
	f.Add("define void @f(i1 %c) {\nentry:\n  br label %l\nl:\n  br i1 %c, label %l, label %x\nx:\n  ret void\n}\n")
	// A small callee inlined into a loop whose counter lives in memory.
	f.Add("define i32 @g(i32 %a) {\nentry:\n  %r = add i32 %a, 1\n  ret i32 %r\n}\n\ndefine i32 @main(i32 %n) {\nentry:\n  %i = alloca i32\n  store i32 0, i32* %i\n  br label %h\nh:\n  %v = load i32, i32* %i\n  %c = icmp slt i32 %v, %n\n  br i1 %c, label %body, label %out\nbody:\n  %w = call i32 @g(i32 %v)\n  store i32 %w, i32* %i\n  br label %h\nout:\n  %z = load i32, i32* %i\n  ret i32 %z\n}\n")
	// Both arms of a condbr name one block; an escaping slot.
	f.Add("declare void @use(i32*)\n\ndefine void @f(i1 %c) {\nentry:\n  %x = alloca i32\n  call void @use(i32* %x)\n  br i1 %c, label %y, label %y\ny:\n  ret void\n}\n")
	// A pointer operand of a double multiply: Verify must reject it, since
	// it prints as `fmul double* %p, 1.2`, which does not parse back.
	f.Add("define double @f() {\nentry:\n  %p = alloca double\n  %t = fmul double %p, 1.2\n  ret double %t\n}\n")

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			return
		}
		m, err := ir.Parse(src)
		if err != nil {
			return
		}
		err = m.Verify()
		m.Release()
		if err != nil {
			return
		}
		for _, lvl := range []passes.OptLevel{passes.O2, passes.Os} {
			m1 := ir.MustParse(src)
			passes.Optimize(m1, lvl)
			if err := m1.Verify(); err != nil {
				t.Fatalf("%s: optimised module does not verify: %v\ninput:\n%s\noutput:\n%s", lvl, err, src, ir.Print(m1))
			}
			out := ir.Print(m1)
			m1.Release()
			re, err := ir.Parse(out)
			if err != nil {
				t.Fatalf("%s: optimised IR does not re-parse: %v\ninput:\n%s\noutput:\n%s", lvl, err, src, out)
			}
			re.Release()
			m2 := ir.MustParse(src)
			passes.Optimize(m2, lvl)
			if again := ir.Print(m2); again != out {
				t.Fatalf("%s: two parses of one input optimise differently\ninput:\n%s\nfirst:\n%s\nsecond:\n%s", lvl, src, out, again)
			}
			m2.Release()
		}
	})
}
