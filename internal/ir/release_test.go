package ir_test

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"
	"weak"

	"mpidetect/internal/ir"
)

// TestParseReleaseAllocs pins the warm parse: with the free list holding
// released arenas, parsing a corpus program allocates only its Module.
func TestParseReleaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds poison released arenas instead of recycling them")
	}
	srcs := goldenSources(t)
	run := func() {
		for _, src := range srcs {
			ir.MustParse(src).Release()
		}
	}
	run()
	if perProg := testing.AllocsPerRun(3, run) / float64(len(srcs)); perProg > 1 {
		t.Fatalf("a warm Parse allocates %.2f times per program, want <= 1 (the Module)", perProg)
	}
}

// TestReleasedModulePinsNothing requires a released module, and the arena
// it handed to the free list, to keep neither the source text its names
// alias nor anything its nodes pointed to alive.
func TestReleasedModulePinsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds poison released arenas, keeping their contents")
	}
	src := strings.Clone(goldenSources(t)[0])
	m := ir.MustParse(src)
	var operand *ir.Instr
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if len(in.Args) > 0 && operand == nil {
					operand = in
				}
			}
		}
	}
	if operand == nil {
		t.Fatal("no instruction with an operand")
	}
	referent := &ir.Const{Typ: ir.I32, Int: 7}
	operand.Args[0] = referent
	srcRef, constRef := weak.Make(unsafe.StringData(src)), weak.Make(referent)
	src, operand, referent = "", nil, nil

	m.Release()
	runtime.GC()
	runtime.GC()
	if srcRef.Value() != nil {
		t.Error("the source text outlived the release of the module parsed from it")
	}
	if constRef.Value() != nil {
		t.Error("an operand stored in the module outlived its release")
	}
	if len(m.Funcs) != 0 || len(m.Globals) != 0 {
		t.Errorf("released module still lists %d functions and %d globals", len(m.Funcs), len(m.Globals))
	}
	runtime.KeepAlive(m)
}

// TestPrintReleasedModulePanics checks the race build's poisoning: a
// released module's instructions carry an invalid opcode, so printing
// one fails loudly instead of reading recycled memory.
func TestPrintReleasedModulePanics(t *testing.T) {
	if !raceEnabled {
		t.Skip("only race builds poison released modules")
	}
	m := ir.MustParse(goldenSources(t)[0])
	m.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Print of a released module did not panic")
		}
	}()
	ir.Print(m)
}
