package ir

import (
	"fmt"
	"strconv"
)

// Value is anything that can appear as an instruction operand: constants,
// function parameters, globals, functions, and instructions themselves.
type Value interface {
	// Type returns the value's IR type.
	Type() *Type
	// Ident returns the value's reference syntax (e.g. "%x", "@g", "42").
	Ident() string
}

// Const is a constant value: integer, float, null pointer, or undef.
type Const struct {
	Typ     *Type
	Int     int64
	Float   float64
	IsFloat bool
	IsNull  bool
	IsUndef bool
}

// ConstInt returns an integer constant of type t.
func ConstInt(t *Type, v int64) *Const { return &Const{Typ: t, Int: v} }

// ConstFloat returns a float constant.
func ConstFloat(v float64) *Const { return &Const{Typ: F64, Float: v, IsFloat: true} }

// ConstNull returns the null pointer constant of pointer type t.
func ConstNull(t *Type) *Const { return &Const{Typ: t, IsNull: true} }

// ConstUndef returns the undef constant of type t.
func ConstUndef(t *Type) *Const { return &Const{Typ: t, IsUndef: true} }

// ConstBool returns an i1 constant.
func ConstBool(b bool) *Const {
	if b {
		return ConstInt(I1, 1)
	}
	return ConstInt(I1, 0)
}

// Type implements Value.
func (c *Const) Type() *Type { return c.Typ }

// Ident implements Value.
func (c *Const) Ident() string {
	switch {
	case c.IsUndef:
		return "undef"
	case c.IsNull:
		return "null"
	case c.IsFloat:
		return strconv.FormatFloat(c.Float, 'g', -1, 64)
	default:
		return strconv.FormatInt(c.Int, 10)
	}
}

// Param is a function parameter.
type Param struct {
	Name string
	Typ  *Type
}

// Type implements Value.
func (p *Param) Type() *Type { return p.Typ }

// Ident implements Value.
func (p *Param) Ident() string { return "%" + p.Name }

// Global is a module-level variable. Its value type is Elem; referring to
// the global yields a pointer to Elem, matching LLVM semantics.
type Global struct {
	Name  string
	Elem  *Type
	Init  *Const // optional scalar initialiser; nil means zeroinitializer
	Str   string // optional byte-array initialiser (c"..." form)
	Const bool
}

// Type implements Value: a global evaluates to a pointer to its element.
func (g *Global) Type() *Type { return PtrTo(g.Elem) }

// Ident implements Value.
func (g *Global) Ident() string { return "@" + g.Name }

// Func is a function definition or declaration.
type Func struct {
	Name     string
	Sig      *Type // KFunc type
	Params   []*Param
	Blocks   []*Block
	Mod      *Module
	Decl     bool // declaration only (extern), e.g. MPI_Send, printf
	Variadic bool
}

// Type implements Value.
func (f *Func) Type() *Type { return PtrTo(f.Sig) }

// Ident implements Value.
func (f *Func) Ident() string { return "@" + f.Name }

// Entry returns the function's entry block (nil for declarations).
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// BlockByName returns the block with the given name, or nil.
func (f *Func) BlockByName(name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// NumInstrs returns the total instruction count of the function.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// RemoveBlock deletes block b from the function (does not fix up uses).
func (f *Func) RemoveBlock(b *Block) {
	for i, bb := range f.Blocks {
		if bb == b {
			f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
			return
		}
	}
}

// Block is a basic block: a straight-line instruction sequence ending in a
// terminator (br, condbr, ret, or unreachable).
type Block struct {
	Name   string
	Instrs []*Instr
	Parent *Func

	// Index is scratch space for CFG analyses: the block's position in
	// Parent.Blocks, set by each analysis that reads it. It is never
	// trusted across passes, since any pass may reorder or drop blocks.
	Index int
}

// Type implements Value (blocks are label-typed, usable as branch targets).
func (b *Block) Type() *Type { return LabelTy }

// Ident implements Value.
func (b *Block) Ident() string { return "%" + b.Name }

// Term returns the block's terminator instruction, or nil if the block is
// not yet terminated.
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if last.Op.IsTerm() {
		return last
	}
	return nil
}

// Succs returns the block's successor blocks in terminator order. The
// result aliases the terminator's target list, so it costs no
// allocation; callers must not modify it.
func (b *Block) Succs() []*Block {
	t := b.Term()
	if t == nil {
		return nil
	}
	switch t.Op {
	case OpBr:
		return t.Blocks[:1]
	case OpCondBr:
		return t.Blocks[:2]
	}
	return nil
}

// Append adds an instruction at the end of the block and sets its parent.
func (b *Block) Append(in *Instr) *Instr {
	in.Parent = b
	b.Instrs = append(b.Instrs, in)
	return in
}

// InsertFront inserts an instruction at the start of the block (used for
// phi placement).
func (b *Block) InsertFront(in *Instr) *Instr {
	in.Parent = b
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[1:], b.Instrs)
	b.Instrs[0] = in
	return in
}

// RemoveInstr deletes instruction in from the block.
func (b *Block) RemoveInstr(in *Instr) {
	for i, x := range b.Instrs {
		if x == in {
			b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
			return
		}
	}
}

// Phis returns the phi instructions at the head of the block. The result
// aliases b.Instrs (its capacity is pinned to its length, so an append
// copies out), and callers must not change b's instruction list while
// they use it.
func (b *Block) Phis() []*Instr {
	n := 0
	for n < len(b.Instrs) && b.Instrs[n].Op == OpPhi {
		n++
	}
	return b.Instrs[:n:n]
}

// Module is a translation unit: globals plus functions.
type Module struct {
	Name    string
	Globals []*Global
	Funcs   []*Func

	// arena holds the module's nodes: set by Parse, taken on first use by
	// a pass growing a module built otherwise, dropped by Release.
	arena *arena
}

// NewModule returns an empty module with the given name.
func NewModule(name string) *Module { return &Module{Name: name} }

// FuncByName returns the function with the given name, or nil.
func (m *Module) FuncByName(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// GlobalByName returns the global with the given name, or nil.
func (m *Module) GlobalByName(name string) *Global {
	for _, g := range m.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// AddFunc appends f to the module and back-links it.
func (m *Module) AddFunc(f *Func) *Func {
	f.Mod = m
	m.Funcs = append(m.Funcs, f)
	return f
}

// AddGlobal appends g to the module.
func (m *Module) AddGlobal(g *Global) *Global {
	m.Globals = append(m.Globals, g)
	return g
}

// NumInstrs returns the total instruction count across all functions.
func (m *Module) NumInstrs() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// Defined returns the defined (non-declaration) functions.
func (m *Module) Defined() []*Func {
	var out []*Func
	for _, f := range m.Funcs {
		if !f.Decl {
			out = append(out, f)
		}
	}
	return out
}

// Verify checks structural invariants of the module: every block is
// terminated, branch targets belong to the same function, phi incoming
// blocks are predecessors, and instruction operand types are sane (no
// operand is an instruction without a result, such as a named store or
// branch, and both operands of a binary op have the op's type). It
// returns the first violation found.
func (m *Module) Verify() error {
	for _, f := range m.Funcs {
		if f.Decl {
			continue
		}
		if len(f.Blocks) == 0 {
			return fmt.Errorf("ir: function @%s has no blocks", f.Name)
		}
		preds := Predecessors(f)
		for _, b := range f.Blocks {
			t := b.Term()
			if t == nil {
				return fmt.Errorf("ir: block %%%s in @%s not terminated", b.Name, f.Name)
			}
			for i, in := range b.Instrs {
				if in.Op.IsTerm() && i != len(b.Instrs)-1 {
					return fmt.Errorf("ir: terminator %s mid-block in %%%s of @%s", in.Op, b.Name, f.Name)
				}
				if in.Op == OpPhi {
					if i > 0 && b.Instrs[i-1].Op != OpPhi {
						return fmt.Errorf("ir: phi not at head of block %%%s in @%s", b.Name, f.Name)
					}
					if len(in.Args) != len(in.Blocks) {
						return fmt.Errorf("ir: phi arity mismatch in %%%s of @%s", b.Name, f.Name)
					}
					for _, ib := range in.Blocks {
						found := false
						for _, p := range preds[b] {
							if p == ib {
								found = true
								break
							}
						}
						if !found {
							return fmt.Errorf("ir: phi in %%%s of @%s names non-predecessor %%%s", b.Name, f.Name, ib.Name)
						}
					}
				}
				for _, tb := range in.Blocks {
					if tb.Parent != f {
						return fmt.Errorf("ir: cross-function branch target in @%s", f.Name)
					}
				}
				for ai, a := range in.Args {
					if a == nil {
						return fmt.Errorf("ir: nil operand %d of %s in @%s", ai, in.Op, f.Name)
					}
					if def, ok := a.(*Instr); ok && def.Type().Kind == KVoid {
						return fmt.Errorf("ir: operand %d of %s in @%s is %%%s, which has no value", ai, in.Op, f.Name, def.Name)
					}
					if in.Op.IsBinary() && !a.Type().Equal(in.Typ) {
						return fmt.Errorf("ir: operand %d of %s %s in @%s has type %s", ai, in.Op, in.Typ, f.Name, a.Type())
					}
				}
			}
		}
	}
	return nil
}

// Predecessors computes the predecessor map of f's CFG.
func Predecessors(f *Func) map[*Block][]*Block {
	preds := make(map[*Block][]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	return preds
}

// ReversePostorder returns f's blocks in reverse postorder from the entry.
// Unreachable blocks are appended at the end in declaration order.
func ReversePostorder(f *Func) []*Block {
	seen := make(map[*Block]bool, len(f.Blocks))
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b] = true
		for _, s := range b.Succs() {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	if e := f.Entry(); e != nil {
		dfs(e)
	}
	out := make([]*Block, 0, len(f.Blocks))
	for i := len(post) - 1; i >= 0; i-- {
		out = append(out, post[i])
	}
	for _, b := range f.Blocks {
		if !seen[b] {
			out = append(out, b)
		}
	}
	return out
}
