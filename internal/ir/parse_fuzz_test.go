package ir_test

import (
	"testing"

	"mpidetect/internal/ir"
)

// FuzzParse differentially fuzzes the zero-copy parser against the retained
// reference implementation: for any input, both must produce the same error
// string or the same printed module. Seeds cover the full golden corpus (so
// the fuzzer starts from realistic IR and mutates from there) plus a few
// hand-picked syntax corners. Each module is released after the
// comparison, so later inputs parse into recycled arenas.
func FuzzParse(f *testing.F) {
	for _, src := range goldenSources(f) {
		f.Add(src)
	}
	f.Add("")
	f.Add("\n")
	f.Add("; module m\n")
	f.Add("@g = global i32 7\n@s = constant [4 x i8] c\"hi\\00!\"\n")
	f.Add("declare i32 @MPI_Send(i8*, i32, i32, i32, i32, i32)\n")
	f.Add("define void @f() {\nentry:\n  ret void\n}\n")
	f.Add("define i32 @f(i32 %a) {\nentry:\n  br i1 true, label %t, label %e\nt:\n  br label %e\ne:\n  %p = phi i32 [ %a, %entry ], [ 1, %t ]\n  ret i32 %p\n}\n")
	f.Add("define void @f() {\nentry:\n  %x = alloca %struct.MPI_Status\n  %y = getelementptr %struct.MPI_Status, %struct.MPI_Status* %x, i64 0, i32 1\n  ret void\n}\n")
	f.Add("define void @f() {\nentry:\n  %c = fcmp oeq double 1.5, 2.5\n  %s = select i1 %c, i32 1, i32 2\n  %t = sitofp i32 %s to double\n  unreachable\n}\n")
	f.Add("define void @f() {\n  ret void\n}\n")
	f.Add("define void @f() {\nentry:\n  %u = frob i32 1\n}\n")

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return // keep the reference parser's quadratic corners affordable
		}
		m1, err1 := ir.Parse(src)
		m2, err2 := ir.ParseReference(src)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error disagreement:\n  new: %v\n  ref: %v\nsource:\n%q", err1, err2, src)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("diagnostic drift:\n  new: %v\n  ref: %v\nsource:\n%q", err1, err2, src)
			}
			return
		}
		if p1, p2 := ir.Print(m1), ir.Print(m2); p1 != p2 {
			t.Fatalf("module drift:\n--- new ---\n%s\n--- ref ---\n%s\nsource:\n%q", p1, p2, src)
		}
		m1.Release()
	})
}
