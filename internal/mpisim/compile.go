// The compile-once execution layer: a Program is the pre-compiled form
// of an IR module, built once per module and reusable (concurrently) by
// any number of simulated runs. The pre-pass numbers every parameter and
// instruction into dense per-function register slots, resolves operand
// references to slot indices or pre-evaluated constants, folds phi nodes
// into per-edge parallel move lists, pre-sizes allocas and globals,
// pre-resolves call targets, and lowers GEPs to precomputed offset
// arithmetic — so the interpreter's frames become flat []RV slices and
// its dispatch never type-switches on ir.Value or hashes pointers.
//
// The compiled form is rank-independent and holds no run state: one
// /analyze request compiles its program once and simulates it at every
// requested world size, and since a fresh Program is compiled per
// request, every run's mutable state comes from the free list of whole
// runs in arena.go, which is shared by all programs.
//
// Compilation never rejects a module. Malformed constructs (undefined
// globals, calls to undefined functions, phis missing an incoming edge,
// out-of-range struct indices) compile into instructions that crash with
// exactly the diagnostic the pre-compilation interpreter produced — at
// execution time, not compile time — so verdicts stay bit-identical.
package mpisim

import (
	"fmt"

	"mpidetect/internal/ir"
	"mpidetect/internal/mpi"
)

// Program is a compiled, immutable, rank-independent execution form of
// an IR module. It may be shared freely across goroutines and holds no
// per-run state: each run borrows a whole Runtime from the free list
// every program shares, and nothing on that list refers back to a
// Program once its run has returned.
type Program struct {
	mod     *ir.Module
	globals []cglobal
	funcs   []*cfunc
	main    *cfunc
	errs    []string // crash messages referenced by compiled operands
}

// cglobal is one pre-sized module global.
type cglobal struct {
	name string // "@name"
	size int
	str  string
	init *ir.Const
	elem *ir.Type
}

// cfunc is one compiled function.
type cfunc struct {
	name       string
	nparams    int
	nslots     int
	entry      *cblock
	entryMoves []phiMove // phis at the entry block have no incoming edge
	blocks     []*cblock
}

// cblock is one compiled basic block: its non-phi instructions in order.
// Leading phis are folded into the incoming edges' move lists.
type cblock struct {
	name string
	code []cinstr
}

// opKind classifies a compiled operand.
type opKind uint8

const (
	oConst  opKind = iota // rv holds the pre-evaluated constant
	oSlot                 // slot indexes the frame
	oGlobal               // slot indexes the machine's global table
	oErr                  // evaluating this operand crashes with msg
)

// operand is a pre-resolved instruction operand. For oErr, slot
// indexes the program's error-message table.
type operand struct {
	kind opKind
	slot int32
	rv   RV
}

// phiMove is one slot assignment of a phi edge's parallel copy. A
// non-negative bad indexes the error table: the phi does not cover this
// edge, and taking it crashes with that message (matching the
// interpreter's diagnostic).
type phiMove struct {
	dst int32
	src operand
	bad int32
}

// gepKind classifies one pre-lowered GEP step.
type gepKind uint8

const (
	gConst gepKind = iota // off += add
	gDyn                  // off += eval(idx) * scale
	gErr                  // crash with msg (non-aggregate / bad struct index)
)

// gepStep is one pre-lowered GEP index step. For gErr, add indexes the
// error table.
type gepStep struct {
	kind  gepKind
	add   int
	scale int
	idx   operand
}

// callKind classifies a pre-resolved call target.
type callKind uint8

const (
	ckFunc   callKind = iota // callee
	ckMPI                    // mpiOp, with its row sig
	ckArity                  // crash: an MPI call whose argument count is not its row's
	ckPrintf                 // printf builtin
	ckExit                   // exit builtin
	ckSleep                  // sleep/usleep builtins
	ckUndef                  // crash: call to undefined function
)

// cinstr is one compiled instruction. Field meaning depends on op; in
// always references the original instruction for runtime checks that
// need it (local-concurrency bookkeeping, diagnostics).
//
// cinstr is kept lean — it is what the execution loop walks — so the
// operands every opcode needs live inline and everything op-specific
// (branch targets, phi moves, call resolution, GEP steps, the alloca
// name, select's third operand) lives behind aux, allocated only for
// the instructions that need it.
type cinstr struct {
	op      ir.Opcode
	dst     int32 // result slot; -1 discards the result
	flag    bool  // ret: has value; alloca: has count operand
	sizeDyn bool  // size must be computed at execution (may panic, as before)
	gepSlow bool  // run the generic type-walking GEP path
	ck      callKind
	cmp     ir.Pred
	size    int // pre-sized bytes (alloca element, load/store access)
	a, b    operand
	typ     *ir.Type
	in      *ir.Instr
	aux     *caux
}

// caux holds the op-specific compiled data of one instruction.
type caux struct {
	c     operand   // select: false arm
	extra []operand // call arguments / slow-GEP indices
	name  string    // alloca: "%name"

	tgt0, tgt1     *cblock
	moves0, moves1 []phiMove

	gep []gepStep

	mpiOp  mpi.Op
	sig    *mpi.Signature
	callee *cfunc
}

// Compile pre-compiles a module for execution. The result is immutable
// and safe for concurrent runs.
func Compile(mod *ir.Module) *Program {
	p := &Program{mod: mod}
	globalIdx := map[string]int32{}
	for i, g := range mod.Globals {
		p.globals = append(p.globals, cglobal{name: "@" + g.Name,
			size: ir.SizeOf(g.Elem), str: g.Str, init: g.Init, elem: g.Elem})
		// Last definition wins, matching the name-keyed map the
		// interpreter used to build per-rank globals.
		globalIdx[g.Name] = int32(i)
	}
	c := &compiler{prog: p, globalIdx: globalIdx, funcs: map[*ir.Func]*cfunc{}}
	shell := func(f *ir.Func) *cfunc {
		cf := &cfunc{name: f.Name}
		p.funcs = append(p.funcs, cf)
		c.funcs[f] = cf
		return cf
	}
	for _, f := range mod.Funcs {
		if !f.Decl {
			shell(f)
		}
	}
	// The entry point is resolved by name exactly like the interpreter
	// did; a declaration-only main still compiles (and still fails the
	// way it used to — at execution).
	if mf := mod.FuncByName("main"); mf != nil {
		if cf, ok := c.funcs[mf]; ok {
			p.main = cf
		} else {
			p.main = shell(mf)
		}
	}
	for f, cf := range c.funcs {
		c.compileFunc(cf, f)
	}
	return p
}

// compiler carries module-level resolution state.
type compiler struct {
	prog      *Program
	globalIdx map[string]int32
	funcs     map[*ir.Func]*cfunc
}

// errIdx interns a crash message into the program's error table.
func (c *compiler) errIdx(msg string) int32 {
	c.prog.errs = append(c.prog.errs, msg)
	return int32(len(c.prog.errs) - 1)
}

// fnCtx carries per-function slot numbering.
type fnCtx struct {
	c      *compiler
	params map[*ir.Param]int32
	slots  map[*ir.Instr]int32
	blocks map[*ir.Block]*cblock

	// opArena backs every call's operand slice and auxArena every
	// op-specific aux record, pre-counted so one allocation each serves
	// the whole function.
	opArena  []operand
	auxArena []caux
}

// takeAux hands out one aux record from the pre-counted arena.
func (fc *fnCtx) takeAux() *caux {
	if len(fc.auxArena) > 0 {
		a := &fc.auxArena[0]
		fc.auxArena = fc.auxArena[1:]
		return a
	}
	return &caux{}
}

// takeOps slices n operands off the pre-counted arena.
func (fc *fnCtx) takeOps(n int) []operand {
	if n <= len(fc.opArena) {
		out := fc.opArena[:n:n]
		fc.opArena = fc.opArena[n:]
		return out
	}
	return make([]operand, n)
}

func (c *compiler) compileFunc(cf *cfunc, f *ir.Func) {
	nInstr := 0
	nCode := 0
	nCallArgs := 0
	nAux := 0
	for _, b := range f.Blocks {
		nInstr += len(b.Instrs)
		for _, in := range b.Instrs {
			if in.Op != ir.OpPhi {
				nCode++
			}
			switch in.Op {
			case ir.OpCall:
				nCallArgs += len(in.Args)
				nAux++
			case ir.OpBr, ir.OpCondBr, ir.OpGEP, ir.OpSelect, ir.OpAlloca:
				nAux++
			}
		}
	}
	fc := &fnCtx{c: c,
		params:   make(map[*ir.Param]int32, len(f.Params)),
		slots:    make(map[*ir.Instr]int32, nInstr),
		blocks:   make(map[*ir.Block]*cblock, len(f.Blocks)),
		opArena:  make([]operand, nCallArgs),
		auxArena: make([]caux, nAux),
	}
	n := int32(0)
	for _, p := range f.Params {
		fc.params[p] = n
		n++
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			fc.slots[in] = n
			n++
		}
	}
	cf.nparams = len(f.Params)
	cf.nslots = int(n)
	cf.blocks = make([]*cblock, len(f.Blocks))
	cbs := make([]cblock, len(f.Blocks))
	for i, b := range f.Blocks {
		cb := &cbs[i]
		cb.name = b.Name
		fc.blocks[b] = cb
		cf.blocks[i] = cb
	}
	codeArena := make([]cinstr, 0, nCode)
	for _, b := range f.Blocks {
		cb := fc.blocks[b]
		start := len(codeArena)
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				continue // folded into edge moves
			}
			codeArena = append(codeArena, fc.compileInstr(f, b, in))
		}
		cb.code = codeArena[start:len(codeArena):len(codeArena)]
	}
	if e := f.Entry(); e != nil {
		cf.entry = fc.blocks[e]
		cf.entryMoves = fc.edgeMoves(nil, e)
	}
}

// operand resolves an ir.Value reference the way Machine.eval did.
func (fc *fnCtx) operand(v ir.Value) operand {
	switch x := v.(type) {
	case *ir.Const:
		switch {
		case x.IsNull, x.IsUndef:
			return operand{kind: oConst}
		case x.IsFloat:
			return operand{kind: oConst, rv: RV{F: x.Float}}
		default:
			return operand{kind: oConst, rv: RV{I: x.Int}}
		}
	case *ir.Param:
		if s, ok := fc.params[x]; ok {
			return operand{kind: oSlot, slot: s}
		}
		// A parameter of another function read as zero (missing from the
		// old per-frame map).
		return operand{kind: oConst}
	case *ir.Instr:
		if s, ok := fc.slots[x]; ok {
			return operand{kind: oSlot, slot: s}
		}
		return operand{kind: oConst}
	case *ir.Global:
		if i, ok := fc.c.globalIdx[x.Name]; ok {
			return operand{kind: oGlobal, slot: i}
		}
		return operand{kind: oErr, slot: fc.c.errIdx("undefined global @" + x.Name)}
	case *ir.Func:
		return operand{kind: oErr, slot: fc.c.errIdx("function value @" + x.Name + " not supported")}
	}
	return operand{kind: oErr, slot: fc.c.errIdx(fmt.Sprintf("unknown value %T", v))}
}

// dstSlot mirrors the old storage rule: named instructions store their
// result; unnamed ones discard it (their slot reads as zero).
func (fc *fnCtx) dstSlot(in *ir.Instr) int32 {
	if in.Name == "" {
		return -1
	}
	return fc.slots[in]
}

// edgeMoves builds the parallel copy of the CFG edge from -> to: one
// move per leading phi of to, evaluating the argument flowing in from
// from. A phi with no matching incoming block compiles to a poisoned
// move reproducing the interpreter's crash.
func (fc *fnCtx) edgeMoves(from, to *ir.Block) []phiMove {
	var moves []phiMove
	for _, phi := range to.Phis() {
		mv := phiMove{dst: fc.slots[phi], bad: -1}
		found := false
		for j, b := range phi.Blocks {
			if b == from {
				mv.src = fc.operand(phi.Args[j])
				found = true
				break
			}
		}
		if !found {
			mv.bad = fc.c.errIdx(fmt.Sprintf("phi in %%%s has no edge from %%%s", to.Name, blockName(from)))
		}
		moves = append(moves, mv)
	}
	return moves
}

func blockName(b *ir.Block) string {
	if b == nil {
		return "<entry>"
	}
	return b.Name
}

// safeSizeOf computes ir.SizeOf guarding against the panics malformed
// (nil-typed) IR produces; !ok defers the computation — and the panic —
// to execution time, matching the interpreter.
func safeSizeOf(t *ir.Type) (size int, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return ir.SizeOf(t), true
}

func (fc *fnCtx) compileInstr(f *ir.Func, b *ir.Block, in *ir.Instr) cinstr {
	ci := cinstr{op: in.Op, in: in, dst: fc.dstSlot(in), typ: in.Typ, cmp: in.Cmp}
	args := in.Args
	argOp := func(i int) operand {
		if i < len(args) {
			return fc.operand(args[i])
		}
		// The old engine would have panicked indexing Args out of range.
		// The parser and irgen never produce such instructions; for
		// hand-built IR the crash still happens at execution time, with a
		// clearer (though not byte-identical) diagnostic.
		return operand{kind: oErr,
			slot: fc.c.errIdx(fmt.Sprintf("missing operand %d of %s", i, in.Op))}
	}
	switch {
	case in.Op == ir.OpBr:
		aux := fc.takeAux()
		aux.tgt0 = fc.blocks[in.Blocks[0]]
		aux.moves0 = fc.edgeMoves(b, in.Blocks[0])
		ci.aux = aux
	case in.Op == ir.OpCondBr:
		ci.a = argOp(0)
		aux := fc.takeAux()
		aux.tgt0 = fc.blocks[in.Blocks[0]]
		aux.moves0 = fc.edgeMoves(b, in.Blocks[0])
		aux.tgt1 = fc.blocks[in.Blocks[1]]
		aux.moves1 = fc.edgeMoves(b, in.Blocks[1])
		ci.aux = aux
	case in.Op == ir.OpRet:
		if len(args) == 1 {
			ci.flag = true
			ci.a = argOp(0)
		}
	case in.Op == ir.OpUnreachable:
		// no operands
	case in.Op == ir.OpAlloca:
		aux := fc.takeAux()
		aux.name = "%" + in.Name
		ci.aux = aux
		ci.size, ci.sizeDyn = sizeOrDyn(in.AllocTy)
		if len(args) == 1 {
			ci.flag = true
			ci.a = argOp(0)
		}
	case in.Op == ir.OpLoad:
		ci.a = argOp(0)
		ci.size, ci.sizeDyn = sizeOrDyn(in.Typ)
	case in.Op == ir.OpStore:
		ci.a = argOp(0)
		ci.b = argOp(1)
		if len(args) > 0 {
			ci.typ = args[0].Type()
			ci.size, ci.sizeDyn = sizeOrDyn(ci.typ)
		} else {
			ci.sizeDyn = true
		}
	case in.Op == ir.OpGEP:
		fc.compileGEP(&ci, in)
	case in.Op.IsBinary(), in.Op == ir.OpICmp, in.Op == ir.OpFCmp:
		ci.a = argOp(0)
		ci.b = argOp(1)
	case in.Op.IsConv():
		ci.a = argOp(0)
	case in.Op == ir.OpSelect:
		ci.a = argOp(0)
		ci.b = argOp(1)
		aux := fc.takeAux()
		aux.c = argOp(2)
		ci.aux = aux
	case in.Op == ir.OpCall:
		aux := fc.takeAux()
		aux.extra = fc.takeOps(len(args))
		for i := range args {
			aux.extra[i] = fc.operand(args[i])
		}
		ci.aux = aux
		fc.resolveCall(&ci, in)
	}
	return ci
}

func sizeOrDyn(t *ir.Type) (int, bool) {
	if s, ok := safeSizeOf(t); ok {
		return s, false
	}
	return 0, true
}

// resolveCall pre-resolves the callee with the interpreter's lookup
// order: MPI routines, then the printf/exit/sleep builtins, then
// module-defined functions; anything else crashes at execution. An MPI
// call is resolved to its row of the routines table, and one whose
// argument count differs from the row's crashes at execution, so the
// handlers may read every position the row gives.
func (fc *fnCtx) resolveCall(ci *cinstr, in *ir.Instr) {
	if op, ok := mpi.FromName(in.Callee); ok {
		sig := mpi.SignatureOf(op)
		ci.ck, ci.aux.mpiOp, ci.aux.sig = ckMPI, op, sig
		if len(in.Args) != len(sig.Params) {
			ci.ck = ckArity
		}
		return
	}
	switch in.Callee {
	case "printf":
		ci.ck = ckPrintf
		return
	case "exit":
		ci.ck = ckExit
		return
	case "sleep", "usleep":
		ci.ck = ckSleep
		return
	}
	callee := fc.c.prog.mod.FuncByName(in.Callee)
	if callee == nil || callee.Decl {
		ci.ck = ckUndef
		return
	}
	cf, ok := fc.c.funcs[callee]
	if !ok {
		ci.ck = ckUndef
		return
	}
	ci.ck, ci.aux.callee = ckFunc, cf
}

// compileGEP lowers a GEP to precomputed offset steps. Constant indices
// fold into a single additive term; dynamic indices keep their byte
// scale. Struct fields with dynamic indices (the one shape whose later
// steps depend on a runtime value) fall back to the generic type-walking
// path, which reproduces the interpreter exactly.
func (fc *fnCtx) compileGEP(ci *cinstr, in *ir.Instr) {
	aux := fc.takeAux()
	ci.aux = aux
	slow := func() {
		ci.gepSlow = true
		aux.extra = make([]operand, len(in.Args))
		for i := range in.Args {
			aux.extra[i] = fc.operand(in.Args[i])
		}
	}
	if len(in.Args) == 0 {
		slow() // out-of-range indexing preserved at execution time
		return
	}
	ci.a = fc.operand(in.Args[0])
	bt := in.Args[0].Type()
	if bt == nil || bt.Kind != ir.KPtr {
		// The old engine read .Elem off whatever this was (possibly nil)
		// and panicked lazily; keep that on the generic path.
		slow()
		return
	}
	cur := bt.Elem
	var steps []gepStep
	addConst := func(n int) {
		if len(steps) > 0 && steps[len(steps)-1].kind == gConst {
			steps[len(steps)-1].add += n
			return
		}
		steps = append(steps, gepStep{kind: gConst, add: n})
	}
	for i, idxV := range in.Args[1:] {
		var scale int
		var fieldSel bool
		switch {
		case i == 0:
			s, ok := safeSizeOf(cur)
			if !ok {
				slow()
				return
			}
			scale = s
		case cur == nil:
			slow()
			return
		case cur.Kind == ir.KArray:
			cur = cur.Elem
			s, ok := safeSizeOf(cur)
			if !ok {
				slow()
				return
			}
			scale = s
		case cur.Kind == ir.KStruct:
			fieldSel = true
		default:
			// The interpreter evaluated the index before noticing the bad
			// type, so a poisoned index operand must still error first.
			steps = append(steps, gepStep{kind: gErr, idx: fc.operand(idxV),
				add: int(fc.c.errIdx(fmt.Sprintf("GEP into non-aggregate %s", cur)))})
			aux.gep = steps
			return // later steps are unreachable
		}
		cv, isConst := idxV.(*ir.Const)
		constIdx := isConst && !cv.IsFloat && !cv.IsNull && !cv.IsUndef
		if fieldSel {
			if !constIdx {
				// Dynamic struct index: later type steps depend on the
				// runtime value — generic path.
				slow()
				return
			}
			idx := int(cv.Int)
			if idx < 0 || idx >= len(cur.Fields) {
				steps = append(steps, gepStep{kind: gErr, idx: fc.operand(idxV),
					add: int(fc.c.errIdx(fmt.Sprintf("GEP struct index %d out of range", idx)))})
				aux.gep = steps
				return
			}
			off := 0
			okAll := true
			for _, fld := range cur.Fields[:idx] {
				s, ok := safeSizeOf(fld)
				if !ok {
					okAll = false
					break
				}
				off += s
			}
			if !okAll {
				slow()
				return
			}
			addConst(off)
			cur = cur.Fields[idx]
			continue
		}
		if constIdx {
			addConst(int(cv.Int) * scale)
			continue
		}
		// Null/undef/float constants evaluate like the interpreter did
		// (their .I field), which the operand already encodes.
		steps = append(steps, gepStep{kind: gDyn, scale: scale, idx: fc.operand(idxV)})
	}
	aux.gep = steps
}
