package graphs

import (
	"testing"

	"mpidetect/internal/dataset"
	"mpidetect/internal/intern"
	"mpidetect/internal/ir"
	"mpidetect/internal/irgen"
	"mpidetect/internal/passes"
)

func fixtureModule() *ir.Module {
	m := ir.NewModule("g")
	m.AddFunc(&ir.Func{Name: "MPI_Barrier", Decl: true, Sig: ir.FuncOf(ir.I32, ir.I32)})
	callee := m.AddFunc(&ir.Func{Name: "helper", Sig: ir.FuncOf(ir.I32, ir.I32),
		Params: []*ir.Param{{Name: "x", Typ: ir.I32}}})
	cb := ir.NewBuilder(callee)
	v := cb.Bin(ir.OpMul, callee.Params[0], ir.ConstInt(ir.I32, 3))
	cb.Ret(v)

	f := m.AddFunc(&ir.Func{Name: "main", Sig: ir.FuncOf(ir.I32)})
	b := ir.NewBuilder(f)
	r := b.Call("helper", ir.I32, ir.ConstInt(ir.I32, 7))
	b.Call("MPI_Barrier", ir.I32, ir.ConstInt(ir.I32, 91))
	cmp := b.ICmp(ir.PredSGT, r, ir.ConstInt(ir.I32, 10))
	then := b.NewBlock("then")
	exit := b.NewBlock("exit")
	b.CondBr(cmp, then, exit)
	b.SetBlock(then)
	b.Br(exit)
	b.SetBlock(exit)
	b.Ret(ir.ConstInt(ir.I32, 0))
	return m
}

func TestBuildSchema(t *testing.T) {
	g := Build(fixtureModule())
	kinds := g.NumByKind()
	if kinds[KindInstr] == 0 || kinds[KindVar] == 0 || kinds[KindConst] == 0 {
		t.Fatalf("missing node kinds: %v", kinds)
	}
	edges := map[EdgeKind][]Edge{}
	for _, e := range g.Edges {
		edges[e.Kind] = append(edges[e.Kind], e)
	}
	if len(edges[EdgeControl]) == 0 || len(edges[EdgeData]) == 0 {
		t.Fatal("missing control or data edges")
	}
	if len(edges[EdgeCall]) != 1 {
		t.Fatalf("call edges = %d, want 1 (call to defined helper only)", len(edges[EdgeCall]))
	}
	// Control edges connect instructions only; data edges end at
	// instructions or variables.
	for _, e := range edges[EdgeControl] {
		if g.Nodes[e.Src].Kind != KindInstr || g.Nodes[e.Dst].Kind != KindInstr {
			t.Fatal("control edge touches a non-instruction node")
		}
	}
}

func TestTokens(t *testing.T) {
	g := Build(fixtureModule())
	want := map[string]bool{"call:MPI_Barrier": false, "call:helper": false, "icmp:sgt": false}
	for _, n := range g.Nodes {
		if _, ok := want[n.Token]; ok {
			want[n.Token] = true
		}
	}
	for tok, seen := range want {
		if !seen {
			t.Errorf("token %q missing from graph", tok)
		}
	}
}

// TestConstBuckets pins every constant bucket, as ConstToken spells it and
// as AppendValueToken spells a constant operand.
func TestConstBuckets(t *testing.T) {
	cases := []struct {
		c    *ir.Const
		want string
	}{
		{ir.ConstUndef(ir.I32), "const:undef"},
		{ir.ConstNull(ir.PtrTo(ir.I8)), "const:null"},
		{ir.ConstFloat(1.5), "const:float"},
		{ir.ConstInt(ir.I32, -3), "const:neg"},
		{ir.ConstInt(ir.I32, 0), "const:0"},
		{ir.ConstInt(ir.I64, 5), "const:5"},
		{ir.ConstInt(ir.I32, 16), "const:16"},
		{ir.ConstInt(ir.I32, 17), "const:medium"},
		{ir.ConstInt(ir.I32, 256), "const:medium"},
		{ir.ConstInt(ir.I32, 257), "const:large"},
	}
	for _, c := range cases {
		if got := ConstToken(c.c); got != c.want {
			t.Errorf("ConstToken = %q, want %q", got, c.want)
		}
		if got := AppendValueToken(nil, c.c); string(got) != c.want {
			t.Errorf("AppendValueToken = %q, want %q", got, c.want)
		}
	}
}

func TestConstantsDeduplicated(t *testing.T) {
	m := ir.NewModule("dups")
	f := m.AddFunc(&ir.Func{Name: "f", Sig: ir.FuncOf(ir.I32)})
	b := ir.NewBuilder(f)
	x := b.Bin(ir.OpAdd, ir.ConstInt(ir.I32, 4), ir.ConstInt(ir.I32, 4))
	y := b.Bin(ir.OpAdd, x, ir.ConstInt(ir.I32, 4))
	b.Ret(y)
	g := Build(m)
	count := 0
	for _, n := range g.Nodes {
		if n.Token == "const:4" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("const:4 appears %d times, want 1 (deduplicated)", count)
	}
}

// TestTokenSpellings pins the instruction, type and operand token
// spellings to their literal bytes (TestConstBuckets pins the constant
// ones): both models' trained vocabularies are keyed on them, so a drift
// here would silently turn trained entities into out-of-vocabulary ones.
func TestTokenSpellings(t *testing.T) {
	m := ir.NewModule("tok")
	g := m.AddGlobal(&ir.Global{Name: "buf", Elem: ir.ArrayOf(4, ir.I32)})
	f := m.AddFunc(&ir.Func{Name: "f", Sig: ir.FuncOf(ir.I32, ir.PtrTo(ir.I8)),
		Params: []*ir.Param{{Name: "p", Typ: ir.PtrTo(ir.I8)}}})
	b := ir.NewBuilder(f)
	add := b.Bin(ir.OpAdd, ir.ConstInt(ir.I32, 1), ir.ConstInt(ir.I32, 2))
	icmp := b.ICmp(ir.PredSLT, add, ir.ConstInt(ir.I32, 5))
	fcmp := b.FCmp(ir.PredSLT, ir.ConstFloat(1.5), ir.ConstFloat(2.5))
	call := b.Call("MPI_Send", ir.I32, g, f.Params[0])
	fin := b.Call("MPI_Finalize", ir.Void)
	ret := b.Ret(add)

	buf := make([]byte, 0, 64)
	check := func(what string, got []byte, want string) {
		t.Helper()
		if string(got) != want {
			t.Errorf("%s = %q, want %q", what, got, want)
		}
	}
	for _, c := range []struct {
		in       *ir.Instr
		opc, typ string
	}{
		{add, "add", "type:i32"},
		{icmp, "icmp:slt", "type:i1"},
		{fcmp, "fcmp:slt", "type:i1"},
		{call, "call:MPI_Send", "type:i32"},
		{fin, "call:MPI_Finalize", "type:void"},
		{ret, "ret", "type:void"},
	} {
		check("AppendInstrToken", AppendInstrToken(buf[:0], c.in), c.opc)
		check("AppendTypeToken", AppendTypeToken(buf[:0], c.in.Type()), c.typ)
	}

	for _, c := range []struct {
		v    ir.Value
		want string
	}{
		{g, "var:[4 x i32]*"},
		{f.Params[0], "var:i8*"},
		{add, "var:i32"},
		{icmp, "var:i1"},
	} {
		check("AppendValueToken", AppendValueToken(buf[:0], c.v), c.want)
	}
	if n := testing.AllocsPerRun(100, func() {
		buf = AppendValueToken(buf[:0], g)
		buf = AppendInstrToken(buf[:0], icmp)
	}); n != 0 {
		t.Errorf("appending tokens allocates %v times, want 0", n)
	}
}

func TestVocabInternedIDs(t *testing.T) {
	m := ir.NewModule("v")
	f := m.AddFunc(&ir.Func{Name: "f", Sig: ir.FuncOf(ir.I32)})
	b := ir.NewBuilder(f)
	b.Ret(b.Bin(ir.OpAdd, ir.ConstInt(ir.I32, 1), ir.ConstInt(ir.I32, 2)))
	g := Build(m)
	v := BuildVocab([]*Graph{g})
	if v.ID("definitely-not-a-token") != v.OOV {
		t.Error("unknown token did not map to OOV")
	}
	if v.Size() != v.Tab.Len()+1 {
		t.Errorf("Size = %d, want %d", v.Size(), v.Tab.Len()+1)
	}
	for _, n := range g.Nodes {
		id := v.ID(n.Token)
		if id == v.OOV {
			t.Fatalf("token %q mapped to OOV", n.Token)
		}
		if v.Tab.TokenOf(intern.ID(id-1)) != n.Token {
			t.Errorf("id %d round-trips to %q, want %q", id, v.Tab.TokenOf(intern.ID(id-1)), n.Token)
		}
	}
	// Legacy map round trip preserves every id.
	back, err := VocabFromTokenIDs(v.TokenIDs())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		if back.ID(n.Token) != v.ID(n.Token) {
			t.Errorf("round-tripped vocab id mismatch for %q", n.Token)
		}
	}
}

func TestVocabFromTokenIDsRejectsCorruptMaps(t *testing.T) {
	cases := []map[string]int{
		{"a": 1, "b": 1},         // duplicate id
		{"a": 0, "b": 1},         // id below the dense range
		{"a": 1, "b": 3},         // hole / id beyond the range
		{"a": 2, "b": 2, "c": 1}, // duplicate id in a bigger map
	}
	for i, m := range cases {
		if _, err := VocabFromTokenIDs(m); err == nil {
			t.Errorf("case %d (%v): corrupt vocab map accepted", i, m)
		}
	}
	if v, err := VocabFromTokenIDs(map[string]int{"a": 2, "b": 1}); err != nil || v.ID("a") != 2 || v.ID("b") != 1 {
		t.Errorf("valid map rejected or ids shuffled: %v", err)
	}
}

// TestBuildResolvedMatchesBuild pins BuildResolved to Build: identical node
// kinds, identical edges, and a TokID per node equal to resolving the
// Build-side token against the same vocabulary — including out-of-vocabulary
// tokens, which must stay distinct nodes (dedup is by bucket, never by id).
// Inputs are the fixture plus MBI and CorrBench programs from two fresh
// generator seeds, at -O0 and -Os.
func TestBuildResolvedMatchesBuild(t *testing.T) {
	mods := []*ir.Module{fixtureModule()}
	for _, seed := range []int64{61, 62} {
		d := dataset.Merge("fresh", dataset.GenerateMBI(seed), dataset.GenerateCorrBench(seed, false))
		for i, c := range d.Shuffled(seed)[:24] {
			m := irgen.MustLower(c.Prog)
			if i%2 == 1 {
				passes.Optimize(m, passes.Os)
			}
			mods = append(mods, m)
		}
	}
	// A vocabulary that deliberately misses some tokens: build it from a
	// smaller module so every input has OOV instruction and const tokens.
	small := ir.NewModule("small")
	f := small.AddFunc(&ir.Func{Name: "f", Sig: ir.FuncOf(ir.I32)})
	b := ir.NewBuilder(f)
	b.Ret(b.Bin(ir.OpMul, ir.ConstInt(ir.I32, 3), ir.ConstInt(ir.I32, 3)))
	smallVocab := BuildVocab([]*Graph{Build(small)})
	for mi, m := range mods {
		ref := Build(m)
		for _, v := range []*Vocab{BuildVocab([]*Graph{ref}), smallVocab} {
			got := BuildResolved(m, v)
			if len(got.Nodes) != len(ref.Nodes) {
				t.Fatalf("module %d: node count %d, want %d", mi, len(got.Nodes), len(ref.Nodes))
			}
			if len(got.TokID) != len(got.Nodes) {
				t.Fatalf("module %d: TokID length %d, want %d", mi, len(got.TokID), len(got.Nodes))
			}
			for i, n := range ref.Nodes {
				if got.Nodes[i].Kind != n.Kind {
					t.Fatalf("module %d: node %d kind %v, want %v", mi, i, got.Nodes[i].Kind, n.Kind)
				}
				if want := v.ID(n.Token); int(got.TokID[i]) != want {
					t.Fatalf("module %d: node %d (%q) TokID %d, want %d", mi, i, n.Token, got.TokID[i], want)
				}
			}
			if len(got.Edges) != len(ref.Edges) {
				t.Fatalf("module %d: edge count %d, want %d", mi, len(got.Edges), len(ref.Edges))
			}
			for i, e := range ref.Edges {
				if got.Edges[i] != e {
					t.Fatalf("module %d: edge %d = %+v, want %+v", mi, i, got.Edges[i], e)
				}
			}
		}
	}
}
