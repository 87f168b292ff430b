package passes

import (
	"strings"
	"testing"

	"mpidetect/internal/ir"
)

// diamond builds:
//
//	entry: x=alloca; store 1,x; condbr p -> then/else
//	then:  store 2,x; br exit
//	else:  store 3,x; br exit
//	exit:  v=load x; ret v
func diamond() (*ir.Module, *ir.Func) {
	m := ir.NewModule("t")
	f := m.AddFunc(&ir.Func{Name: "f", Sig: ir.FuncOf(ir.I32, ir.I1),
		Params: []*ir.Param{{Name: "p", Typ: ir.I1}}})
	b := ir.NewBuilder(f)
	x := b.Alloca(ir.I32, 1)
	b.Store(ir.ConstInt(ir.I32, 1), x)
	then := b.NewBlock("then")
	els := b.NewBlock("else")
	exit := b.NewBlock("exit")
	b.CondBr(f.Params[0], then, els)
	b.SetBlock(then)
	b.Store(ir.ConstInt(ir.I32, 2), x)
	b.Br(exit)
	b.SetBlock(els)
	b.Store(ir.ConstInt(ir.I32, 3), x)
	b.Br(exit)
	b.SetBlock(exit)
	v := b.Load(x)
	b.Ret(v)
	return m, f
}

func TestDomTreeDiamond(t *testing.T) {
	_, f := diamond()
	dt := BuildDomTree(f)
	entry := f.Entry()
	then := f.BlockByName("then")
	els := f.BlockByName("else")
	exit := f.BlockByName("exit")
	if dt.Idom(then) != entry || dt.Idom(els) != entry || dt.Idom(exit) != entry {
		t.Errorf("idoms wrong: then=%v else=%v exit=%v", dt.Idom(then).Name, dt.Idom(els).Name, dt.Idom(exit).Name)
	}
	if !dt.Dominates(entry, exit) {
		t.Error("entry should dominate exit")
	}
	if dt.Dominates(then, exit) {
		t.Error("then should not dominate exit")
	}
	// DF(then) = DF(else) = {exit}
	if len(dt.Frontier(then)) != 1 || dt.Frontier(then)[0] != exit {
		t.Errorf("DF(then) = %v", names(dt.Frontier(then)))
	}
}

func names(bs []*ir.Block) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	return out
}

func TestMem2RegInsertsPhi(t *testing.T) {
	m, f := diamond()
	Mem2Reg(f)
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify: %v\n%s", err, ir.Print(m))
	}
	exit := f.BlockByName("exit")
	phis := exit.Phis()
	if len(phis) != 1 {
		t.Fatalf("exit has %d phis, want 1\n%s", len(phis), ir.Print(m))
	}
	// No loads/stores/allocas remain.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpAlloca, ir.OpLoad, ir.OpStore:
				t.Fatalf("memory op %s survived mem2reg", in.Op)
			}
		}
	}
	// The phi merges 2 and 3.
	got := map[int64]bool{}
	for _, a := range phis[0].Args {
		c, ok := a.(*ir.Const)
		if !ok {
			t.Fatalf("phi arg not constant: %v", a.Ident())
		}
		got[c.Int] = true
	}
	if !got[2] || !got[3] {
		t.Errorf("phi args = %v, want {2,3}", got)
	}
	// Renaming visits dominator-tree siblings in block order, so the
	// operand from "then" comes first. The corpus golden never sees a
	// surviving phi whose operand order depends on that.
	if text := ir.FormatInstr(phis[0]); text != "%m2r1 = phi i32 [ 2, %then ], [ 3, %else ]" {
		t.Errorf("phi = %q, want operands in block order", text)
	}
}

func TestMem2RegStraightLine(t *testing.T) {
	m := ir.NewModule("t")
	f := m.AddFunc(&ir.Func{Name: "f", Sig: ir.FuncOf(ir.I32)})
	b := ir.NewBuilder(f)
	x := b.Alloca(ir.I32, 1)
	b.Store(ir.ConstInt(ir.I32, 5), x)
	v := b.Load(x)
	sum := b.Bin(ir.OpAdd, v, ir.ConstInt(ir.I32, 1))
	b.Store(sum, x)
	v2 := b.Load(x)
	b.Ret(v2)
	Mem2Reg(f)
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	ConstFold(f)
	DCE(f)
	term := f.Entry().Term()
	if c, ok := term.Args[0].(*ir.Const); !ok || c.Int != 6 {
		t.Fatalf("ret arg = %v, want 6\n%s", term.Args[0].Ident(), ir.Print(m))
	}
}

func TestMem2RegSkipsEscaping(t *testing.T) {
	m := ir.NewModule("t")
	f := m.AddFunc(&ir.Func{Name: "f", Sig: ir.FuncOf(ir.Void)})
	b := ir.NewBuilder(f)
	x := b.Alloca(ir.I32, 1)
	b.Call("use", ir.Void, x) // escapes
	b.Ret(nil)
	Mem2Reg(f)
	found := false
	for _, in := range f.Entry().Instrs {
		if in.Op == ir.OpAlloca {
			found = true
		}
	}
	if !found {
		t.Error("escaping alloca was promoted")
	}
}

func TestConstFoldBinary(t *testing.T) {
	m := ir.NewModule("t")
	f := m.AddFunc(&ir.Func{Name: "f", Sig: ir.FuncOf(ir.I32)})
	b := ir.NewBuilder(f)
	v1 := b.Bin(ir.OpAdd, ir.ConstInt(ir.I32, 4), ir.ConstInt(ir.I32, 5))
	v2 := b.Bin(ir.OpMul, v1, ir.ConstInt(ir.I32, 3))
	v3 := b.Bin(ir.OpSub, v2, ir.ConstInt(ir.I32, 7))
	b.Ret(v3)
	ConstFold(f)
	term := f.Entry().Term()
	c, ok := term.Args[0].(*ir.Const)
	if !ok || c.Int != 20 {
		t.Fatalf("folded value = %v, want 20", term.Args[0].Ident())
	}
}

func TestConstFoldBranch(t *testing.T) {
	m := ir.NewModule("t")
	f := m.AddFunc(&ir.Func{Name: "f", Sig: ir.FuncOf(ir.I32)})
	b := ir.NewBuilder(f)
	cond := b.ICmp(ir.PredSLT, ir.ConstInt(ir.I32, 1), ir.ConstInt(ir.I32, 2))
	then := b.NewBlock("then")
	els := b.NewBlock("else")
	b.CondBr(cond, then, els)
	b.SetBlock(then)
	b.Ret(ir.ConstInt(ir.I32, 1))
	b.SetBlock(els)
	b.Ret(ir.ConstInt(ir.I32, 0))
	ConstFold(f)
	SimplifyCFG(f)
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if n := len(f.Blocks); n != 1 {
		t.Fatalf("blocks after simplify = %d, want 1\n%s", n, ir.Print(m))
	}
	term := f.Entry().Term()
	if c, ok := term.Args[0].(*ir.Const); !ok || c.Int != 1 {
		t.Fatalf("function returns %v, want 1", term.Args[0].Ident())
	}
}

func TestDCEKeepsSideEffects(t *testing.T) {
	m := ir.NewModule("t")
	f := m.AddFunc(&ir.Func{Name: "f", Sig: ir.FuncOf(ir.Void)})
	b := ir.NewBuilder(f)
	b.Bin(ir.OpAdd, ir.ConstInt(ir.I32, 1), ir.ConstInt(ir.I32, 2)) // dead
	b.Call("MPI_Barrier", ir.I32, ir.ConstInt(ir.I32, 91))          // call result unused, kept
	b.Ret(nil)
	DCE(f)
	nCalls, nAdds := 0, 0
	for _, in := range f.Entry().Instrs {
		switch in.Op {
		case ir.OpCall:
			nCalls++
		case ir.OpAdd:
			nAdds++
		}
	}
	if nCalls != 1 {
		t.Error("DCE removed a call")
	}
	if nAdds != 0 {
		t.Error("DCE kept a dead add")
	}
}

func TestInlineSmallCallee(t *testing.T) {
	m := ir.NewModule("t")
	callee := m.AddFunc(&ir.Func{Name: "sq", Sig: ir.FuncOf(ir.I32, ir.I32),
		Params: []*ir.Param{{Name: "x", Typ: ir.I32}}})
	cb := ir.NewBuilder(callee)
	sq := cb.Bin(ir.OpMul, callee.Params[0], callee.Params[0])
	cb.Ret(sq)

	caller := m.AddFunc(&ir.Func{Name: "main", Sig: ir.FuncOf(ir.I32)})
	b := ir.NewBuilder(caller)
	r := b.Call("sq", ir.I32, ir.ConstInt(ir.I32, 6))
	b.Ret(r)

	if !Inline(m, 50) {
		t.Fatal("Inline did nothing")
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify: %v\n%s", err, ir.Print(m))
	}
	for _, blk := range caller.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == ir.OpCall && in.Callee == "sq" {
				t.Fatal("call to sq survived inlining")
			}
		}
	}
	// After folding the inlined body the function returns 36.
	ConstFold(caller)
	SimplifyCFG(caller)
	DCE(caller)
	term := caller.Entry().Term()
	if c, ok := term.Args[0].(*ir.Const); !ok || c.Int != 36 {
		t.Fatalf("inlined+folded result = %v, want 36\n%s", term.Args[0].Ident(), ir.Print(m))
	}
}

func TestInlineMultiReturn(t *testing.T) {
	m := ir.NewModule("t")
	callee := m.AddFunc(&ir.Func{Name: "absv", Sig: ir.FuncOf(ir.I32, ir.I32),
		Params: []*ir.Param{{Name: "x", Typ: ir.I32}}})
	cb := ir.NewBuilder(callee)
	neg := cb.ICmp(ir.PredSLT, callee.Params[0], ir.ConstInt(ir.I32, 0))
	nb := cb.NewBlock("neg")
	pb := cb.NewBlock("pos")
	cb.CondBr(neg, nb, pb)
	cb.SetBlock(nb)
	n := cb.Bin(ir.OpSub, ir.ConstInt(ir.I32, 0), callee.Params[0])
	cb.Ret(n)
	cb.SetBlock(pb)
	cb.Ret(callee.Params[0])

	caller := m.AddFunc(&ir.Func{Name: "main", Sig: ir.FuncOf(ir.I32, ir.I32),
		Params: []*ir.Param{{Name: "a", Typ: ir.I32}}})
	b := ir.NewBuilder(caller)
	r := b.Call("absv", ir.I32, caller.Params[0])
	r2 := b.Bin(ir.OpAdd, r, ir.ConstInt(ir.I32, 1))
	b.Ret(r2)

	if !Inline(m, 50) {
		t.Fatal("Inline did nothing")
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify: %v\n%s", err, ir.Print(m))
	}
	text := ir.Print(m)
	if !strings.Contains(text, "phi") {
		t.Errorf("expected a merge phi after multi-return inline:\n%s", text)
	}
}

func TestOptimizeLevels(t *testing.T) {
	for _, lvl := range []OptLevel{O0, O2, Os} {
		m, f := diamond()
		before := f.NumInstrs()
		Optimize(m, lvl)
		if err := m.Verify(); err != nil {
			t.Fatalf("%s: Verify: %v", lvl, err)
		}
		after := f.NumInstrs()
		if lvl == O0 && after != before {
			t.Errorf("-O0 changed the function (%d -> %d)", before, after)
		}
		if lvl != O0 && after >= before {
			t.Errorf("%s did not shrink the diamond (%d -> %d)", lvl, before, after)
		}
	}
}

func TestParseOptLevel(t *testing.T) {
	for _, c := range []struct {
		in   string
		want OptLevel
		ok   bool
	}{{"-O0", O0, true}, {"-O2", O2, true}, {"-Os", Os, true}, {"-O3", O0, false}} {
		got, ok := ParseOptLevel(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("ParseOptLevel(%q) = %v,%v", c.in, got, ok)
		}
	}
}

func TestSimplifyRemovesUnreachable(t *testing.T) {
	m := ir.NewModule("t")
	f := m.AddFunc(&ir.Func{Name: "f", Sig: ir.FuncOf(ir.Void)})
	b := ir.NewBuilder(f)
	b.Ret(nil)
	orphan := b.NewBlock("orphan")
	b.SetBlock(orphan)
	b.Ret(nil)
	SimplifyCFG(f)
	if len(f.Blocks) != 1 {
		t.Errorf("unreachable block not removed: %d blocks", len(f.Blocks))
	}
}

func TestDomTreeLoop(t *testing.T) {
	// entry -> header; header -> body | exit; body -> header
	m := ir.NewModule("t")
	f := m.AddFunc(&ir.Func{Name: "f", Sig: ir.FuncOf(ir.Void, ir.I1),
		Params: []*ir.Param{{Name: "p", Typ: ir.I1}}})
	b := ir.NewBuilder(f)
	header := b.NewBlock("header")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(header)
	b.SetBlock(header)
	b.CondBr(f.Params[0], body, exit)
	b.SetBlock(body)
	b.Br(header)
	b.SetBlock(exit)
	b.Ret(nil)
	dt := BuildDomTree(f)
	if dt.Idom(body) != header || dt.Idom(exit) != header {
		t.Error("loop idoms wrong")
	}
	// DF(body) = {header}; DF(header) = {header}
	if len(dt.Frontier(body)) != 1 || dt.Frontier(body)[0] != header {
		t.Errorf("DF(body) = %v", names(dt.Frontier(body)))
	}
}

func TestMem2RegLoopVariable(t *testing.T) {
	// i = 0; while (i < n) i = i + 1; return i
	m := ir.NewModule("t")
	f := m.AddFunc(&ir.Func{Name: "f", Sig: ir.FuncOf(ir.I32, ir.I32),
		Params: []*ir.Param{{Name: "n", Typ: ir.I32}}})
	b := ir.NewBuilder(f)
	iv := b.Alloca(ir.I32, 1)
	b.Store(ir.ConstInt(ir.I32, 0), iv)
	header := b.NewBlock("header")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(header)
	b.SetBlock(header)
	cur := b.Load(iv)
	cmp := b.ICmp(ir.PredSLT, cur, f.Params[0])
	b.CondBr(cmp, body, exit)
	b.SetBlock(body)
	cur2 := b.Load(iv)
	inc := b.Bin(ir.OpAdd, cur2, ir.ConstInt(ir.I32, 1))
	b.Store(inc, iv)
	b.Br(header)
	b.SetBlock(exit)
	fin := b.Load(iv)
	b.Ret(fin)

	Mem2Reg(f)
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify: %v\n%s", err, ir.Print(m))
	}
	phis := f.BlockByName("header").Phis()
	if len(phis) != 1 {
		t.Fatalf("header has %d phis, want 1\n%s", len(phis), ir.Print(m))
	}
}

func TestMem2RegPrunesCopyLoop(t *testing.T) {
	// x = 0; while (p) x = x; return x — the loop stores back what it
	// loaded, so the header phi only merges itself with 0 and is pruned.
	// Its operand from the body is the loaded value, which renaming has
	// replaced by the phi: pruning must read operands through that.
	m := ir.NewModule("t")
	f := m.AddFunc(&ir.Func{Name: "f", Sig: ir.FuncOf(ir.I32, ir.I1),
		Params: []*ir.Param{{Name: "p", Typ: ir.I1}}})
	b := ir.NewBuilder(f)
	x := b.Alloca(ir.I32, 1)
	b.Store(ir.ConstInt(ir.I32, 0), x)
	header := b.NewBlock("header")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(header)
	b.SetBlock(header)
	b.CondBr(f.Params[0], body, exit)
	b.SetBlock(body)
	b.Store(b.Load(x), x)
	b.Br(header)
	b.SetBlock(exit)
	b.Ret(b.Load(x))

	Mem2Reg(f)
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify: %v\n%s", err, ir.Print(m))
	}
	if phis := header.Phis(); len(phis) != 0 {
		t.Fatalf("header keeps %d phis, want 0\n%s", len(phis), ir.Print(m))
	}
	if c, ok := exit.Term().Args[0].(*ir.Const); !ok || c.Int != 0 {
		t.Fatalf("returns %s, want 0\n%s", exit.Term().Args[0].Ident(), ir.Print(m))
	}
}
