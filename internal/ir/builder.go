package ir

import "fmt"

// Builder incrementally constructs a function's blocks and instructions,
// assigning fresh SSA names. It is the API the front-end uses to lower the
// AST, and the API tests use to construct fixtures.
type Builder struct {
	F      *Func
	Cur    *Block
	nextID int
	nextBB int
}

// NewBuilder returns a builder positioned at a fresh entry block of f.
func NewBuilder(f *Func) *Builder {
	b := &Builder{F: f}
	entry := b.NewBlock("entry")
	b.SetBlock(entry)
	return b
}

// NewBlock creates (and appends) a new block with a unique name derived
// from hint.
func (b *Builder) NewBlock(hint string) *Block {
	name := hint
	if b.F.BlockByName(name) != nil {
		name = fmt.Sprintf("%s%d", hint, b.nextBB)
		for b.F.BlockByName(name) != nil {
			b.nextBB++
			name = fmt.Sprintf("%s%d", hint, b.nextBB)
		}
	}
	b.nextBB++
	blk := &Block{Name: name, Parent: b.F}
	b.F.Blocks = append(b.F.Blocks, blk)
	return blk
}

// SetBlock moves the insertion point to blk.
func (b *Builder) SetBlock(blk *Block) { b.Cur = blk }

// fresh returns a new unique SSA name.
func (b *Builder) fresh() string {
	b.nextID++
	return fmt.Sprintf("t%d", b.nextID)
}

func (b *Builder) emit(in *Instr) *Instr {
	if in.Typ != nil && in.Typ.Kind != KVoid && in.Name == "" {
		in.Name = b.fresh()
	}
	return b.Cur.Append(in)
}

// Terminated reports whether the current block already has a terminator.
func (b *Builder) Terminated() bool { return b.Cur != nil && b.Cur.Term() != nil }

// Alloca emits an alloca of elem (with optional array count n>1).
func (b *Builder) Alloca(elem *Type, n int) *Instr {
	in := &Instr{Op: OpAlloca, Typ: PtrTo(elem), AllocTy: elem}
	if n > 1 {
		in.Args = []Value{ConstInt(I32, int64(n))}
	}
	return b.emit(in)
}

// Load emits a load of the element type behind ptr.
func (b *Builder) Load(ptr Value) *Instr {
	pt := ptr.Type()
	if !pt.IsPtr() {
		panic(fmt.Sprintf("ir: load of non-pointer %s", pt))
	}
	return b.emit(&Instr{Op: OpLoad, Typ: pt.Elem, Args: []Value{ptr}})
}

// Store emits a store of v through ptr.
func (b *Builder) Store(v, ptr Value) *Instr {
	return b.emit(&Instr{Op: OpStore, Typ: Void, Args: []Value{v, ptr}})
}

// GEP emits an address computation: elemTy is the pointee type of ptr; the
// result points at the indexed element.
func (b *Builder) GEP(ptr Value, resultElem *Type, idx ...Value) *Instr {
	args := append([]Value{ptr}, idx...)
	return b.emit(&Instr{Op: OpGEP, Typ: PtrTo(resultElem), Args: args})
}

// Bin emits a binary arithmetic instruction.
func (b *Builder) Bin(op Opcode, x, y Value) *Instr {
	if !op.IsBinary() {
		panic("ir: Bin with non-binary opcode " + op.String())
	}
	return b.emit(&Instr{Op: op, Typ: x.Type(), Args: []Value{x, y}})
}

// ICmp emits an integer comparison producing i1.
func (b *Builder) ICmp(p Pred, x, y Value) *Instr {
	return b.emit(&Instr{Op: OpICmp, Typ: I1, Cmp: p, Args: []Value{x, y}})
}

// FCmp emits a float comparison producing i1.
func (b *Builder) FCmp(p Pred, x, y Value) *Instr {
	return b.emit(&Instr{Op: OpFCmp, Typ: I1, Cmp: p, Args: []Value{x, y}})
}

// Conv emits a conversion instruction to type to.
func (b *Builder) Conv(op Opcode, v Value, to *Type) *Instr {
	if !op.IsConv() {
		panic("ir: Conv with non-conversion opcode " + op.String())
	}
	return b.emit(&Instr{Op: op, Typ: to, Args: []Value{v}})
}

// Call emits a call to callee returning ret.
func (b *Builder) Call(callee string, ret *Type, args ...Value) *Instr {
	return b.emit(&Instr{Op: OpCall, Typ: ret, Callee: callee, Args: args})
}

// Br emits an unconditional branch.
func (b *Builder) Br(target *Block) *Instr {
	return b.emit(&Instr{Op: OpBr, Typ: Void, Blocks: []*Block{target}})
}

// CondBr emits a conditional branch.
func (b *Builder) CondBr(cond Value, ifTrue, ifFalse *Block) *Instr {
	return b.emit(&Instr{Op: OpCondBr, Typ: Void, Args: []Value{cond}, Blocks: []*Block{ifTrue, ifFalse}})
}

// Ret emits a return; v may be nil for void returns.
func (b *Builder) Ret(v Value) *Instr {
	in := &Instr{Op: OpRet, Typ: Void}
	if v != nil {
		in.Args = []Value{v}
	}
	return b.emit(in)
}
