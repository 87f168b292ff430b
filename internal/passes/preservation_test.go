package passes_test

import (
	"strings"
	"sync"
	"testing"

	"mpidetect/internal/dataset"
	"mpidetect/internal/ir"
	"mpidetect/internal/irgen"
	"mpidetect/internal/mpisim"
	"mpidetect/internal/passes"
)

// TestPassesPreserveCorrectPrograms is the central semantic-preservation
// property: every sampled correct benchmark program must simulate to the
// same clean outcome and identical output at -O0, -O2 and -Os.
func TestPassesPreserveCorrectPrograms(t *testing.T) {
	d := dataset.GenerateMBI(101)
	checked := 0
	for i, c := range d.Codes {
		if c.Incorrect() || i%23 != 0 {
			continue
		}
		checked++
		var outputs []string
		for _, lvl := range []passes.OptLevel{passes.O0, passes.O2, passes.Os} {
			m := irgen.MustLower(c.Prog)
			passes.Optimize(m, lvl)
			if err := m.Verify(); err != nil {
				t.Fatalf("%s at %s: verify: %v", c.Name, lvl, err)
			}
			res := mpisim.Run(m, mpisim.Config{Ranks: c.Ranks})
			if res.Erroneous() {
				t.Fatalf("%s at %s: flagged after optimisation: %+v crash=%v %s",
					c.Name, lvl, res.Violations, res.Crashed, res.CrashMsg)
			}
			outputs = append(outputs, res.Output)
		}
		if outputs[0] != outputs[1] || outputs[1] != outputs[2] {
			t.Fatalf("%s: output differs across opt levels", c.Name)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d programs checked", checked)
	}
}

// TestPassesPreserveVerdictsOnErrorCodes: optimisation must not make the
// dynamic verdict of erroneous codes flip to clean for deterministic error
// classes (invalid parameters survive constant folding).
func TestPassesPreserveVerdictsOnErrorCodes(t *testing.T) {
	d := dataset.GenerateCorrBench(103, false)
	checked := 0
	for i, c := range d.Codes {
		if c.Label != dataset.ArgError || i%5 != 0 {
			continue
		}
		checked++
		for _, lvl := range []passes.OptLevel{passes.O0, passes.Os} {
			m := irgen.MustLower(c.Prog)
			passes.Optimize(m, lvl)
			res := mpisim.Run(m, mpisim.Config{Ranks: c.Ranks})
			if !res.Erroneous() {
				t.Errorf("%s at %s: error disappeared after optimisation", c.Name, lvl)
			}
		}
	}
	if checked < 5 {
		t.Fatalf("only %d programs checked", checked)
	}
}

// TestOptimizedIRRoundTrips: the printer/parser must round-trip optimised
// modules from the real corpus, not just hand-built fixtures.
func TestOptimizedIRRoundTrips(t *testing.T) {
	d := dataset.GenerateCorrBench(105, false)
	for i, c := range d.Codes {
		if i%17 != 0 {
			continue
		}
		m := irgen.MustLower(c.Prog)
		passes.Optimize(m, passes.O2)
		text := ir.Print(m)
		m2, err := ir.Parse(text)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.Name, err)
		}
		if got := ir.Print(m2); got != text {
			t.Fatalf("%s: optimised IR does not round-trip", c.Name)
		}
	}
}

// TestOsNeverLargerThanO0: the size-oriented pipeline must not grow code.
func TestOsNeverLargerThanO0(t *testing.T) {
	d := dataset.GenerateMBI(107)
	for i, c := range d.Codes {
		if i%31 != 0 {
			continue
		}
		m0 := irgen.MustLower(c.Prog)
		ms := irgen.MustLower(c.Prog)
		passes.Optimize(ms, passes.Os)
		if ms.NumInstrs() > m0.NumInstrs() {
			t.Errorf("%s: -Os grew the module (%d -> %d instrs)",
				c.Name, m0.NumInstrs(), ms.NumInstrs())
		}
	}
}

// optimizedText lowers c, optimises it at lvl and prints it.
func optimizedText(c *dataset.Code, lvl passes.OptLevel) string {
	m := irgen.MustLower(c.Prog)
	passes.Optimize(m, lvl)
	return ir.Print(m)
}

// TestOptimizeIndependentOfHistory: the optimised IR of a program depends
// only on the program, never on how many modules the process inlined
// before it.
func TestOptimizeIndependentOfHistory(t *testing.T) {
	d := dataset.GenerateMBI(109)
	inlined := 0
	for i, c := range d.Codes {
		if i%29 != 0 {
			continue
		}
		first := optimizedText(c, passes.Os)
		if strings.Contains(first, "%inl") {
			inlined++
		}
		optimizedText(d.Codes[(i+1)%len(d.Codes)], passes.O2)
		if again := optimizedText(c, passes.Os); again != first {
			t.Fatalf("%s: -Os output changed after optimising another module:\n%s\nvs\n%s", c.Name, first, again)
		}
	}
	if inlined == 0 {
		t.Fatal("no sampled program inlined anything")
	}
}

// TestReoptimizeOptimizedIR: serve optimises client IR, which may already
// be optimised. Optimising printed -Os output again must keep the module
// valid, and what it prints must re-parse.
func TestReoptimizeOptimizedIR(t *testing.T) {
	d := dataset.Merge("mix", dataset.GenerateMBI(111), dataset.GenerateCorrBench(111, false))
	inlined := 0
	for i, c := range d.Codes {
		if i%13 != 0 {
			continue
		}
		text := optimizedText(c, passes.Os)
		for _, lvl := range []passes.OptLevel{passes.Os, passes.O2} {
			m, err := ir.Parse(text)
			if err != nil {
				t.Fatalf("%s: parse -Os output: %v", c.Name, err)
			}
			passes.Optimize(m, lvl)
			if err := m.Verify(); err != nil {
				t.Fatalf("%s: verify after re-optimising at %s: %v", c.Name, lvl, err)
			}
			if dup := duplicateName(m); dup != "" {
				t.Fatalf("%s: re-optimising at %s defined %%%s twice", c.Name, lvl, dup)
			}
			again := ir.Print(m)
			if strings.Contains(again, "%inl") {
				inlined++
			}
			if _, err := ir.Parse(again); err != nil {
				t.Fatalf("%s: re-optimised %s output does not parse: %v\n%s", c.Name, lvl, err, again)
			}
		}
	}
	if inlined == 0 {
		t.Fatal("no sampled program carried inlined names")
	}
}

// duplicateName returns a block or value name defined twice within one
// function of m, or "".
func duplicateName(m *ir.Module) string {
	for _, f := range m.Defined() {
		seen := map[string]bool{}
		for _, p := range f.Params {
			seen["%"+p.Name] = true
		}
		for _, b := range f.Blocks {
			if seen[":"+b.Name] {
				return b.Name
			}
			seen[":"+b.Name] = true
			for _, in := range b.Instrs {
				if in.Name == "" {
					continue
				}
				if seen["%"+in.Name] {
					return in.Name
				}
				seen["%"+in.Name] = true
			}
		}
	}
	return ""
}

// TestInlineAvoidsExistingInlinedNames: a caller that already carries
// inl<n>. names, as optimised client IR does, gets fresh numbers for
// what is inlined into it.
func TestInlineAvoidsExistingInlinedNames(t *testing.T) {
	m, err := ir.Parse(`define i32 @sq(i32 %x) {
entry:
  %m = mul i32 %x, %x
  ret i32 %m
}

define i32 @main(i32 %a) {
entry:
  br label %inl1.cont
inl1.cont:
  %inl1.m = add i32 %a, 1
  %r = call i32 @sq(i32 %inl1.m)
  ret i32 %r
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if !passes.Inline(m, 50) {
		t.Fatal("Inline did nothing")
	}
	if dup := duplicateName(m); dup != "" {
		t.Fatalf("inlining defined %%%s twice:\n%s", dup, ir.Print(m))
	}
	if text := ir.Print(m); !strings.Contains(text, "%inl2.m = mul") {
		t.Fatalf("inlined body not numbered after the existing inl1. names:\n%s", text)
	}
}

// TestOptimizeConcurrent: runs on several goroutines share the scratch
// pool, never a scratch; each module must print what a lone run prints.
func TestOptimizeConcurrent(t *testing.T) {
	d := dataset.GenerateCorrBench(113, false)
	codes := d.Codes[:32]
	want := make([]string, len(codes))
	for i, c := range codes {
		want[i] = optimizedText(c, passes.Os)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, c := range codes {
				if got := optimizedText(c, passes.Os); got != want[i] {
					t.Errorf("%s: concurrent -Os output differs from a lone run", c.Name)
				}
			}
		}()
	}
	wg.Wait()
}
