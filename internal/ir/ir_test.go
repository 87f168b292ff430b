package ir

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// buildFixture constructs a small function with control flow, memory ops,
// a call, and a phi, exercising every printer path.
func buildFixture() *Module {
	m := NewModule("fixture")
	m.AddGlobal(&Global{Name: "g", Elem: I32, Init: ConstInt(I32, 7)})
	send := m.AddFunc(&Func{Name: "MPI_Send", Decl: true,
		Sig: FuncOf(I32, PtrTo(I8), I32, I32, I32, I32, I32)})
	_ = send

	f := m.AddFunc(&Func{Name: "main", Sig: FuncOf(I32, I32), Params: []*Param{{Name: "argc", Typ: I32}}})
	b := NewBuilder(f)
	buf := b.Alloca(ArrayOf(4, I32), 1)
	p0 := b.GEP(buf, I32, ConstInt(I64, 0), ConstInt(I64, 0))
	b.Store(ConstInt(I32, 42), p0)
	v := b.Load(p0)
	sum := b.Bin(OpAdd, v, f.Params[0])
	cmp := b.ICmp(PredSGT, sum, ConstInt(I32, 10))
	then := b.NewBlock("then")
	els := b.NewBlock("else")
	exit := b.NewBlock("exit")
	b.CondBr(cmp, then, els)
	b.SetBlock(then)
	cast := b.Conv(OpBitcast, p0, PtrTo(I8))
	b.Call("MPI_Send", I32, cast, ConstInt(I32, 4), ConstInt(I32, 1), ConstInt(I32, 0), ConstInt(I32, 9), ConstInt(I32, 91))
	b.Br(exit)
	b.SetBlock(els)
	dbl := b.Bin(OpMul, sum, ConstInt(I32, 2))
	b.Br(exit)
	b.SetBlock(exit)
	phi := b.Cur.InsertFront(&Instr{Op: OpPhi, Typ: I32, Name: b.fresh()})
	phi.Args = []Value{sum, dbl}
	phi.Blocks = []*Block{then, els}
	b.Ret(phi)
	return m
}

func TestVerifyFixture(t *testing.T) {
	m := buildFixture()
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	m := buildFixture()
	text := Print(m)
	m2, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, text)
	}
	text2 := Print(m2)
	if text != text2 {
		t.Fatalf("round-trip mismatch:\n--- first ---\n%s\n--- second ---\n%s", text, text2)
	}
	if err := m2.Verify(); err != nil {
		t.Fatalf("Verify after parse: %v", err)
	}
}

// TestParseRejectsUnprintable pins that the parser rejects what it
// could not read back once printed. Block references in phis and
// branches are split on commas outside brackets, so a label holding a
// bracket, brace or comma is not a label; and a struct type needs a
// name, since an unnamed one prints as "{}". The fuzzer found "{ntry:"
// and "%struct.^PI_Status*" each surviving a parse but not a round trip.
func TestParseRejectsUnprintable(t *testing.T) {
	var srcs []string
	for _, label := range []string{"{ntry", "a(b", "x]", "p,q"} {
		srcs = append(srcs, "define i32 @f(i32 %a) {\n"+label+":\n  br label %b\nb:\n  ret i32 %a\n}\n")
	}
	srcs = append(srcs, "declare i32 @f(%struct.^x*)\n")
	for _, src := range srcs {
		if _, err := Parse(src); err == nil {
			t.Errorf("parsed:\n%s", src)
		}
	}
}

// typeSpellings pins the one type rendering to literal spellings, one
// type of every Kind plus the nil, anonymous-struct and func corners: the
// IR text format and every interned feature vocabulary are keyed on them,
// so a drift here would silently orphan trained embeddings.
var typeSpellings = []struct {
	t    *Type
	want string
}{
	{nil, "<nil-type>"},
	{Void, "void"},
	{I1, "i1"},
	{I8, "i8"},
	{I32, "i32"},
	{I64, "i64"},
	{F64, "double"},
	{LabelTy, "label"},
	{PtrTo(I8), "i8*"},
	{PtrTo(PtrTo(I32)), "i32**"},
	{ArrayOf(10, F64), "[10 x double]"},
	{ArrayOf(3, PtrTo(I8)), "[3 x i8*]"},
	{StatusType, "%struct.MPI_Status"},
	{PtrTo(StatusType), "%struct.MPI_Status*"},
	{&Type{Kind: KStruct, Fields: []*Type{I32, PtrTo(I8)}}, "{i32, i8*}"},
	{&Type{Kind: KStruct}, "{}"},
	{FuncOf(Void, I32, PtrTo(I8)), "void (i32, i8*)"},
	{FuncOf(I64), "i64 ()"},
	{&Type{Kind: Kind(99)}, "<?>"},
}

func TestTypeString(t *testing.T) {
	for _, c := range typeSpellings {
		if got := c.t.String(); got != c.want {
			t.Errorf("Type.String() = %q, want %q", got, c.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = I32.String() }); n != 0 {
		t.Errorf("I32.String allocates %v times, want 0", n)
	}
}

func TestTypeAppendString(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, c := range typeSpellings {
		if got := string(c.t.AppendString(buf[:0])); got != c.want {
			t.Errorf("AppendString = %q, want %q", got, c.want)
		}
	}
}

func TestParseTypeRoundTrip(t *testing.T) {
	types := []*Type{I1, I8, I32, I64, F64, PtrTo(I32), ArrayOf(3, PtrTo(I8)),
		PtrTo(ArrayOf(2, I64)), StatusType, PtrTo(StatusType)}
	for _, typ := range types {
		got, rest, err := new(arena).parseType(typ.String())
		if err != nil {
			t.Fatalf("parseType(%q): %v", typ.String(), err)
		}
		if rest != "" {
			t.Fatalf("parseType(%q) left %q", typ.String(), rest)
		}
		if !got.Equal(typ) {
			t.Errorf("parseType(%q) = %s", typ.String(), got)
		}
	}
}

func TestTypeEqual(t *testing.T) {
	if !ArrayOf(4, I32).Equal(ArrayOf(4, I32)) {
		t.Error("equal array types not Equal")
	}
	if ArrayOf(4, I32).Equal(ArrayOf(5, I32)) {
		t.Error("different-length arrays Equal")
	}
	if PtrTo(I32).Equal(PtrTo(I64)) {
		t.Error("different pointer types Equal")
	}
	if !FuncOf(I32, I32).Equal(FuncOf(I32, I32)) {
		t.Error("equal func types not Equal")
	}
}

func TestSizeOf(t *testing.T) {
	cases := []struct {
		t    *Type
		want int
	}{
		{I8, 1}, {I32, 4}, {I64, 8}, {F64, 8}, {PtrTo(I8), 8},
		{ArrayOf(10, I32), 40}, {StatusType, 12},
	}
	for _, c := range cases {
		if got := SizeOf(c.t); got != c.want {
			t.Errorf("SizeOf(%s) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestBlockSuccsAndPreds(t *testing.T) {
	m := buildFixture()
	f := m.FuncByName("main")
	entry := f.Entry()
	succs := entry.Succs()
	if len(succs) != 2 {
		t.Fatalf("entry succs = %d, want 2", len(succs))
	}
	preds := Predecessors(f)
	exit := f.BlockByName("exit")
	if len(preds[exit]) != 2 {
		t.Errorf("exit preds = %d, want 2", len(preds[exit]))
	}
}

func TestReversePostorder(t *testing.T) {
	m := buildFixture()
	f := m.FuncByName("main")
	rpo := ReversePostorder(f)
	if len(rpo) != len(f.Blocks) {
		t.Fatalf("rpo covers %d blocks, want %d", len(rpo), len(f.Blocks))
	}
	if rpo[0] != f.Entry() {
		t.Error("rpo does not start at entry")
	}
	pos := map[*Block]int{}
	for i, b := range rpo {
		pos[b] = i
	}
	// In this acyclic CFG every edge must go forward in RPO.
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if pos[s] <= pos[b] {
				t.Errorf("edge %s->%s not forward in RPO", b.Name, s.Name)
			}
		}
	}
}

func TestVerifyCatchesUnterminated(t *testing.T) {
	m := NewModule("bad")
	f := m.AddFunc(&Func{Name: "f", Sig: FuncOf(Void)})
	f.Blocks = append(f.Blocks, &Block{Name: "entry", Parent: f})
	if err := m.Verify(); err == nil {
		t.Error("Verify accepted unterminated block")
	}
}

func TestVerifyCatchesMisplacedPhi(t *testing.T) {
	m := NewModule("bad")
	f := m.AddFunc(&Func{Name: "f", Sig: FuncOf(Void)})
	b := NewBuilder(f)
	add := b.Bin(OpAdd, ConstInt(I32, 1), ConstInt(I32, 2))
	phi := &Instr{Op: OpPhi, Typ: I32, Name: "p", Args: []Value{add}, Blocks: []*Block{b.Cur}}
	b.Cur.Append(phi)
	b.Ret(nil)
	if err := m.Verify(); err == nil {
		t.Error("Verify accepted phi after non-phi")
	}
}

// TestVerifyCatchesValuelessOperand: the parser lets any instruction
// carry a name, so textual IR can use a branch or a store as an operand.
// Such a module is malformed; the optimiser, which may delete the
// branch, printed IR naming an undefined value for it.
func TestVerifyCatchesValuelessOperand(t *testing.T) {
	m, err := Parse("define void @f(i32 %x) {\nentry:\n  %t = br label %next\nnext:\n  store i32 %x, i32* %t\n  ret void\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err == nil || !strings.Contains(err.Error(), "has no value") {
		t.Errorf("Verify = %v, want an operand-without-value error", err)
	}
}

func TestReplaceUses(t *testing.T) {
	m := buildFixture()
	f := m.FuncByName("main")
	var load *Instr
	for _, in := range f.Entry().Instrs {
		if in.Op == OpLoad {
			load = in
		}
	}
	c := ConstInt(I32, 99)
	ReplaceUses(f, load, c)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a == Value(load) {
					t.Fatal("stale use of replaced value")
				}
			}
		}
	}
}

func TestMPICallName(t *testing.T) {
	m := buildFixture()
	f := m.FuncByName("main")
	found := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if n := in.MPICallName(); n != "" {
				if n != "MPI_Send" {
					t.Errorf("MPICallName = %q", n)
				}
				found = true
			}
		}
	}
	if !found {
		t.Error("no MPI call found in fixture")
	}
}

func TestConstIdent(t *testing.T) {
	cases := []struct {
		c    *Const
		want string
	}{
		{ConstInt(I32, -5), "-5"},
		{ConstFloat(2.5), "2.5"},
		{ConstNull(PtrTo(I8)), "null"},
		{ConstUndef(I32), "undef"},
		{ConstBool(true), "1"},
	}
	for _, c := range cases {
		if got := c.c.Ident(); got != c.want {
			t.Errorf("Ident() = %q, want %q", got, c.want)
		}
	}
}

// TestParsePrintQuickConsts property-checks constant print/parse round trips.
func TestParsePrintQuickConsts(t *testing.T) {
	f := func(v int64) bool {
		c := ConstInt(I64, v)
		got, err := parseConstToken(I64, c.Ident())
		return err == nil && got.Int == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// randModule builds a random (but structurally valid) straight-line module
// for property tests.
func randModule(rng *rand.Rand) *Module {
	m := NewModule("rand")
	f := m.AddFunc(&Func{Name: "f", Sig: FuncOf(I32, I32, I32),
		Params: []*Param{{Name: "a", Typ: I32}, {Name: "b", Typ: I32}}})
	b := NewBuilder(f)
	vals := []Value{f.Params[0], f.Params[1], ConstInt(I32, rng.Int63n(100))}
	ops := []Opcode{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor}
	n := 3 + rng.Intn(12)
	for i := 0; i < n; i++ {
		x := vals[rng.Intn(len(vals))]
		y := vals[rng.Intn(len(vals))]
		v := b.Bin(ops[rng.Intn(len(ops))], x, y)
		vals = append(vals, v)
	}
	b.Ret(vals[len(vals)-1])
	return m
}

func TestQuickRoundTripRandomModules(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		m := randModule(rng)
		text := Print(m)
		m2, err := Parse(text)
		if err != nil {
			t.Fatalf("iteration %d: Parse: %v\n%s", i, err, text)
		}
		if got := Print(m2); got != text {
			t.Fatalf("iteration %d: round trip mismatch", i)
		}
	}
}

func TestSplitTop(t *testing.T) {
	got := splitTop("a, [ b, c ], d(e, f)", ',')
	if len(got) != 3 {
		t.Fatalf("splitTop = %d parts (%q), want 3", len(got), got)
	}
	if strings.TrimSpace(got[1]) != "[ b, c ]" {
		t.Errorf("part 1 = %q", got[1])
	}
}

func TestParseDeclareVariadic(t *testing.T) {
	m, err := Parse("declare i32 @printf(i8* %fmt, ...)\n")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	f := m.FuncByName("printf")
	if f == nil || !f.Decl || !f.Variadic {
		t.Fatalf("printf not parsed as variadic declaration: %+v", f)
	}
}

// TestParseUnknownStructStaysLocal: a %struct name the registry does not
// know parses as an opaque struct and is not added to the process-wide
// registry, so concurrent parses of such input (the server parses
// requests in parallel) never write shared state.
func TestParseUnknownStructStaysLocal(t *testing.T) {
	src := "declare i32 @f(%struct.NotRegistered*)\n\ndefine i32 @main() {\nentry:\n" +
		"  %t1 = call i32 @f(%struct.NotRegistered* null)\n  ret i32 0\n}\n"
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := Parse(src)
			if err != nil {
				t.Error(err)
				return
			}
			if got := Print(m); !strings.Contains(got, "%struct.NotRegistered* null") {
				t.Errorf("unknown struct did not round-trip:\n%s", got)
			}
		}()
	}
	wg.Wait()
	if _, ok := namedStructs["NotRegistered"]; ok {
		t.Fatal("parsing registered an unknown struct name")
	}
}
