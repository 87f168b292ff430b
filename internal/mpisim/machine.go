package mpisim

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"

	"mpidetect/internal/ir"
)

// RV is a runtime value: an integer, a float, or a pointer.
type RV struct {
	I int64
	F float64
	P *Ptr // non-nil for pointer values
}

// Ptr is a typed-erased address: an object plus a byte offset.
type Ptr struct {
	Obj *MemObj
	Off int
}

// MemObj is an allocation: a byte array plus a shadow map for stored
// pointers (pointers are not serialisable into bytes). Ptrs is allocated
// lazily on the first typed-pointer store — most objects never hold one.
type MemObj struct {
	Name  string
	Bytes []byte
	Ptrs  map[int]*Ptr
	Owner int // owning rank, -1 for none
}

type runErr struct {
	kind string // "crash", "timeout", "exit"
	msg  string
}

func (e *runErr) Error() string { return e.kind + ": " + e.msg }

func crashf(format string, args ...any) error {
	return &runErr{kind: "crash", msg: fmt.Sprintf(format, args...)}
}

// maxRankOutput caps one rank's printf stream so a simulated output loop
// cannot balloon server memory; the stream is cut at a marker and the
// run's Result reports the truncation.
const maxRankOutput = 64 << 10

// truncationMarker ends a capped output stream.
const truncationMarker = "\n[mpisim: output truncated]\n"

// Machine executes one compiled MPI rank. Its frames' slots are flat
// []RV slices indexed by pre-assigned register slots and pooled in its
// Runtime's arena. A Machine belongs to one pooled Runtime for life and
// is rebound to a program at the start of every run.
type Machine struct {
	prog     *Program
	rank     int
	rt       *Runtime
	proc     *proc
	steps    int64
	maxSteps int64

	// stack is the simulated call stack, innermost frame last: calls push
	// and pop it, so a rank parked in an MPI call is resumable data.
	stack []frame

	globals   []*MemObj
	globalRVs []RV // pre-built pointer values, one per global

	out          []byte
	outTruncated bool

	phiScratch []RV // parallel-copy staging for the widest phi edge
	argScratch []RV // argument staging for non-retaining calls
	fmtBuf     []byte
}

// frame is one activation of a compiled function.
type frame struct {
	fn    *cfunc
	slots []RV
	blk   *cblock
	pc    int // the instruction to run next in blk; a call while suspended
}

// reset binds the machine to prog for a fresh run: zeroed counters,
// truncation state, and global tables resized in place; run fills them.
func (m *Machine) reset(prog *Program, maxSteps int64) {
	m.prog = prog
	m.steps, m.maxSteps = 0, maxSteps
	m.out = m.out[:0]
	m.outTruncated = false
	m.globals = slices.Grow(m.globals[:0], len(prog.globals))[:len(prog.globals)]
	m.globalRVs = slices.Grow(m.globalRVs[:0], len(prog.globals))[:len(prog.globals)]
}

// run executes the rank until main returns, the rank parks in a blocking
// MPI call (errPark) or it fails; the error (if any) is a *runErr. A
// parked rank first finishes the call it parked in. A fresh rank first
// builds its globals out of the run's arena, so a global too large to
// allocate crashes the rank like any other allocation.
func (m *Machine) run() error {
	if len(m.stack) > 0 {
		rv, err := m.rt.park(m.proc, m.proc.wait)
		if err != nil {
			return err
		}
		m.stack[len(m.stack)-1].retire(rv)
		return m.exec()
	}
	for i := range m.prog.globals {
		g := &m.prog.globals[i]
		obj := m.rt.newMemObj(g.name, g.size, m.rank)
		if g.str != "" {
			copy(obj.Bytes, g.str)
		} else if g.init != nil {
			_ = obj.store(0, g.elem, RV{I: g.init.Int, F: g.init.Float})
		}
		m.globals[i] = obj
		m.globalRVs[i] = RV{P: m.rt.newPtr(obj, 0)}
	}
	if m.prog.main == nil {
		return crashf("no main function")
	}
	// main's parameters read as zero; the frame is already zeroed.
	if err := m.push(m.prog.main, nil); err != nil {
		return err
	}
	return m.exec()
}

const maxCallDepth = 128

// push enters cf on a fresh frame holding its arguments.
func (m *Machine) push(cf *cfunc, args []RV) error {
	if len(m.stack) > maxCallDepth {
		return crashf("call depth exceeded in @%s", cf.name)
	}
	if cf.entry == nil {
		// Reproduce the pre-compilation engine's nil-entry panic (a
		// defined function without blocks, or a declaration-only main).
		var b *ir.Block
		_ = b.Phis()
	}
	fr := m.rt.getFrame(cf.nslots)
	n := min(len(args), cf.nparams)
	copy(fr[:n], args[:n])
	m.stack = append(m.stack, frame{fn: cf, slots: fr, blk: cf.entry})
	return m.applyMoves(fr, cf.entryMoves)
}

// unwind pops the frames down to depth, returning their slots to the
// arena: one frame when a call returns, all of them when the rank fails.
func (m *Machine) unwind(depth int) {
	for len(m.stack) > depth {
		top := len(m.stack) - 1
		m.rt.putFrame(m.stack[top].slots)
		m.stack[top] = frame{}
		m.stack = m.stack[:top]
	}
}

// retire stores v as the result of the frame's current instruction and
// moves past it.
func (f *frame) retire(v RV) {
	if dst := f.blk.code[f.pc].dst; dst >= 0 {
		f.slots[dst] = v
	}
	f.pc++
}

// evalOp resolves a pre-compiled operand against the frame.
func (m *Machine) evalOp(fr []RV, op *operand) (RV, error) {
	switch op.kind {
	case oSlot:
		return fr[op.slot], nil
	case oConst:
		return op.rv, nil
	case oGlobal:
		return m.globalRVs[op.slot], nil
	}
	return RV{}, &runErr{kind: "crash", msg: m.prog.errs[op.slot]}
}

// evalAB resolves an instruction's two inline operands, a first.
func (m *Machine) evalAB(fr []RV, in *cinstr) (RV, RV, error) {
	x, err := m.evalOp(fr, &in.a)
	if err != nil {
		return RV{}, RV{}, err
	}
	y, err := m.evalOp(fr, &in.b)
	return x, y, err
}

// applyMoves performs a phi edge's parallel copy: all sources evaluate
// against the pre-move frame, then all destinations are written.
func (m *Machine) applyMoves(fr []RV, moves []phiMove) error {
	if cap(m.phiScratch) < len(moves) {
		m.phiScratch = make([]RV, len(moves))
	}
	sc := m.phiScratch[:len(moves)]
	for i := range moves {
		mv := &moves[i]
		if mv.bad >= 0 {
			return &runErr{kind: "crash", msg: m.prog.errs[mv.bad]}
		}
		v, err := m.evalOp(fr, &mv.src)
		if err != nil {
			return err
		}
		sc[i] = v
	}
	for i := range moves {
		fr[moves[i].dst] = sc[i]
	}
	return nil
}

// exec runs the innermost frame onwards until main returns (nil), the
// rank parks in a blocking MPI call (errPark, pc left on the call) or it
// fails.
func (m *Machine) exec() error {
	f := &m.stack[len(m.stack)-1]
	for {
		if f.pc >= len(f.blk.code) {
			return crashf("fell off block %%%s in @%s", f.blk.name, f.fn.name)
		}
		in := &f.blk.code[f.pc]
		m.steps++
		if m.steps > m.maxSteps {
			return &runErr{kind: "timeout",
				msg: fmt.Sprintf("step budget exceeded in @%s", f.fn.name)}
		}
		// Cooperative cancellation: a rank that never blocks on MPI
		// (a compute loop) must still notice an aborted run; checking
		// every 1024 steps bounds both the check cost and how long a
		// rank can outlive its budget.
		if m.steps&1023 == 0 {
			if se := m.rt.stopNow(); se != nil {
				return se
			}
		}
		var v RV
		var err error
		switch in.op {
		case ir.OpBr, ir.OpCondBr:
			aux := in.aux
			moves, to := aux.moves0, aux.tgt0
			if in.op == ir.OpCondBr {
				c, err := m.evalOp(f.slots, &in.a)
				if err != nil {
					return err
				}
				if c.I == 0 {
					moves, to = aux.moves1, aux.tgt1
				}
			}
			if err := m.applyMoves(f.slots, moves); err != nil {
				return err
			}
			f.blk, f.pc = to, 0
			continue
		case ir.OpRet:
			if in.flag {
				if v, err = m.evalOp(f.slots, &in.a); err != nil {
					return err
				}
			}
			m.unwind(len(m.stack) - 1)
			if len(m.stack) == 0 {
				return nil
			}
			f = &m.stack[len(m.stack)-1] // retire the call below
		case ir.OpUnreachable:
			return crashf("reached unreachable in @%s", f.fn.name)
		case ir.OpCall:
			v, err = m.execCall(f.slots, in)
			if err == nil && in.ck == ckFunc {
				f = &m.stack[len(m.stack)-1] // the callee; its return retires the call
				continue
			}
		default:
			v, err = m.execInstr(f.slots, in)
		}
		if err != nil {
			return err
		}
		f.retire(v)
	}
}

func (m *Machine) execInstr(fr []RV, in *cinstr) (RV, error) {
	switch {
	case in.op == ir.OpAlloca:
		n := 1
		if in.flag {
			c, err := m.evalOp(fr, &in.a)
			if err != nil {
				return RV{}, err
			}
			n = int(c.I)
			if n < 1 {
				n = 1
			}
		}
		size := in.size
		if in.sizeDyn {
			size = ir.SizeOf(in.in.AllocTy)
		}
		obj := m.rt.newMemObj(in.aux.name, size*n, m.rank)
		return RV{P: m.rt.newPtr(obj, 0)}, nil

	case in.op == ir.OpLoad:
		pv, err := m.evalOp(fr, &in.a)
		if err != nil {
			return RV{}, err
		}
		if pv.P == nil {
			return RV{}, crashf("nil pointer dereference")
		}
		size := in.size
		if in.sizeDyn {
			size = ir.SizeOf(in.in.Typ)
		}
		m.rt.checkLocalAccess(m.rank, pv.P, size, false)
		return pv.P.Obj.loadSized(pv.P.Off, size, in.typ)

	case in.op == ir.OpStore:
		v, pv, err := m.evalAB(fr, in)
		if err != nil {
			return RV{}, err
		}
		if pv.P == nil {
			return RV{}, crashf("nil pointer dereference")
		}
		size := in.size
		if in.sizeDyn {
			size = ir.SizeOf(in.in.Args[0].Type())
		}
		m.rt.checkLocalAccess(m.rank, pv.P, size, true)
		return RV{}, pv.P.Obj.storeSized(pv.P.Off, size, in.typ, v)

	case in.op == ir.OpGEP:
		return m.execGEP(fr, in)

	case in.op.IsBinary():
		x, y, err := m.evalAB(fr, in)
		if err != nil {
			return RV{}, err
		}
		return execBinary(in.op, in.typ, x, y)

	case in.op == ir.OpICmp:
		x, y, err := m.evalAB(fr, in)
		if err != nil {
			return RV{}, err
		}
		if x.P != nil || y.P != nil {
			eq := ptrEq(x.P, y.P) && x.I == y.I
			switch in.cmp {
			case ir.PredEQ:
				return boolRV(eq), nil
			case ir.PredNE:
				return boolRV(!eq), nil
			}
			return RV{}, crashf("ordered pointer comparison")
		}
		return boolRV(ir.Compare(in.cmp, x.I, y.I)), nil

	case in.op == ir.OpFCmp:
		x, y, err := m.evalAB(fr, in)
		if err != nil {
			return RV{}, err
		}
		return boolRV(ir.Compare(in.cmp, x.F, y.F)), nil

	case in.op.IsConv():
		x, err := m.evalOp(fr, &in.a)
		if err != nil {
			return RV{}, err
		}
		return execConv(in.op, in.typ, x)

	case in.op == ir.OpSelect:
		c, err := m.evalOp(fr, &in.a)
		if err != nil {
			return RV{}, err
		}
		if c.I != 0 {
			return m.evalOp(fr, &in.b)
		}
		return m.evalOp(fr, &in.aux.c)
	}
	return RV{}, crashf("cannot execute %s", in.op)
}

func (m *Machine) execGEP(fr []RV, in *cinstr) (RV, error) {
	if in.gepSlow {
		return m.execGEPSlow(fr, in)
	}
	base, err := m.evalOp(fr, &in.a)
	if err != nil {
		return RV{}, err
	}
	if base.P == nil {
		return RV{}, crashf("GEP on nil pointer")
	}
	off := base.P.Off
	gep := in.aux.gep
	for i := range gep {
		st := &gep[i]
		switch st.kind {
		case gConst:
			off += st.add
		case gDyn:
			iv, err := m.evalOp(fr, &st.idx)
			if err != nil {
				return RV{}, err
			}
			off += int(iv.I) * st.scale
		default: // gErr: the interpreter evaluated the index first
			if st.idx.kind == oErr {
				return RV{}, &runErr{kind: "crash", msg: m.prog.errs[st.idx.slot]}
			}
			return RV{}, &runErr{kind: "crash", msg: m.prog.errs[st.add]}
		}
	}
	return RV{P: m.rt.newPtr(base.P.Obj, off)}, nil
}

// execGEPSlow is the generic type-walking path, kept for the shapes the
// compiler cannot pre-lower (dynamic struct indices, malformed pointer
// types). It mirrors the pre-compilation interpreter instruction by
// instruction — including its panics on nil types.
func (m *Machine) execGEPSlow(fr []RV, in *cinstr) (RV, error) {
	orig := in.in
	extra := in.aux.extra
	base, err := m.evalOp(fr, &extra[0])
	if err != nil {
		return RV{}, err
	}
	if base.P == nil {
		return RV{}, crashf("GEP on nil pointer")
	}
	cur := orig.Args[0].Type().Elem
	off := base.P.Off
	for i := 1; i < len(extra); i++ {
		iv, err := m.evalOp(fr, &extra[i])
		if err != nil {
			return RV{}, err
		}
		idx := int(iv.I)
		if i == 1 {
			off += idx * ir.SizeOf(cur)
			continue
		}
		switch cur.Kind {
		case ir.KArray:
			cur = cur.Elem
			off += idx * ir.SizeOf(cur)
		case ir.KStruct:
			if idx < 0 || idx >= len(cur.Fields) {
				return RV{}, crashf("GEP struct index %d out of range", idx)
			}
			for _, f := range cur.Fields[:idx] {
				off += ir.SizeOf(f)
			}
			cur = cur.Fields[idx]
		default:
			return RV{}, crashf("GEP into non-aggregate %s", cur)
		}
	}
	return RV{P: m.rt.newPtr(base.P.Obj, off)}, nil
}

// execCall runs a call. A call of a compiled function enters the callee
// on a new frame; its return retires the call.
func (m *Machine) execCall(fr []RV, in *cinstr) (RV, error) {
	extra := in.aux.extra
	nargs := len(extra)
	var args []RV
	if in.ck == ckMPI {
		// MPI argument vectors may be retained (persistent requests,
		// collective slots) until the run ends: carve them from the run.
		args = m.rt.rvs.List(nargs, chunkLen)
	} else {
		if cap(m.argScratch) < nargs {
			m.argScratch = make([]RV, nargs)
		}
		args = m.argScratch[:nargs]
	}
	for i := range extra {
		v, err := m.evalOp(fr, &extra[i])
		if err != nil {
			return RV{}, err
		}
		args[i] = v
	}
	switch in.ck {
	case ckMPI:
		return m.rt.dispatch(m, in.aux.mpiOp, args)
	case ckPrintf:
		return m.printf(args)
	case ckExit:
		return RV{}, &runErr{kind: "exit", msg: "exit called"}
	case ckSleep:
		return RV{I: 0}, nil
	case ckUndef:
		return RV{}, crashf("call to undefined @%s", in.in.Callee)
	}
	return RV{}, m.push(in.aux.callee, args)
}

// printf implements the %d/%ld/%f/%g/%s/%c/%% subset, formatting into a
// reusable buffer and appending to the capped per-rank output stream.
// The returned byte count is always the full formatted length, so a
// program branching on printf's result behaves identically whether or
// not the stream was truncated.
func (m *Machine) printf(args []RV) (RV, error) {
	if len(args) == 0 || args[0].P == nil {
		return RV{}, crashf("printf without format")
	}
	format := cString(args[0].P)
	sb := m.fmtBuf[:0]
	ai := 1
	next := func() RV {
		if ai < len(args) {
			v := args[ai]
			ai++
			return v
		}
		return RV{}
	}
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' || i+1 >= len(format) {
			sb = append(sb, c)
			continue
		}
		i++
		// skip length modifiers
		for format[i] == 'l' || format[i] == 'z' {
			i++
			if i >= len(format) {
				break
			}
		}
		switch format[i] {
		case 'd', 'i', 'u':
			sb = strconv.AppendInt(sb, next().I, 10)
		case 'f', 'g', 'e':
			sb = strconv.AppendFloat(sb, next().F, 'g', -1, 64)
		case 's':
			v := next()
			if v.P != nil {
				sb = append(sb, cString(v.P)...)
			}
		case 'c':
			sb = append(sb, byte(next().I))
		case 'p':
			sb = append(sb, "0x"...)
			sb = strconv.AppendInt(sb, next().I, 16)
		case '%':
			sb = append(sb, '%')
		default:
			sb = append(sb, format[i])
		}
	}
	m.fmtBuf = sb[:0]
	m.writeOut(sb)
	return RV{I: int64(len(sb))}, nil
}

// writeOut appends to the rank's output stream, cutting it at the cap.
func (m *Machine) writeOut(s []byte) {
	if m.outTruncated {
		return
	}
	if len(m.out)+len(s) > maxRankOutput {
		if room := maxRankOutput - len(m.out); room > 0 {
			m.out = append(m.out, s[:room]...)
		}
		m.out = append(m.out, truncationMarker...)
		m.outTruncated = true
		return
	}
	m.out = append(m.out, s...)
}

// cString reads the NUL-terminated bytes at p without copying.
func cString(p *Ptr) []byte {
	end := p.Off
	for end < len(p.Obj.Bytes) && p.Obj.Bytes[end] != 0 {
		end++
	}
	return p.Obj.Bytes[p.Off:end]
}

func boolRV(b bool) RV {
	if b {
		return RV{I: 1}
	}
	return RV{}
}

func ptrEq(a, b *Ptr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Obj == b.Obj && a.Off == b.Off
}

// execBinary evaluates a binary op. Unlike the constant folder, a run
// crashes on an integer division or remainder by zero, uses the low six
// bits of a shift amount and divides floats by zero.
func execBinary(op ir.Opcode, typ *ir.Type, x, y RV) (RV, error) {
	b := y.I
	switch op {
	case ir.OpSDiv:
		if b == 0 {
			return RV{}, crashf("integer division by zero")
		}
	case ir.OpSRem:
		if b == 0 {
			return RV{}, crashf("integer remainder by zero")
		}
	case ir.OpShl, ir.OpAShr:
		b &= 63
	}
	if r, ok := ir.IntBinary(op, typ, x.I, b); ok {
		return RV{I: r}, nil
	}
	if r, ok := ir.FloatBinary(op, x.F, y.F); ok {
		return RV{F: r}, nil
	}
	return RV{}, crashf("bad binary op %s", op)
}

func execConv(op ir.Opcode, typ *ir.Type, x RV) (RV, error) {
	switch op {
	case ir.OpTrunc, ir.OpSExt:
		return RV{I: ir.Wrap(typ, x.I)}, nil
	case ir.OpZExt:
		return RV{I: x.I}, nil
	case ir.OpSIToFP:
		return RV{F: float64(x.I)}, nil
	case ir.OpFPToSI:
		return RV{I: ir.Wrap(typ, int64(x.F))}, nil
	case ir.OpBitcast:
		return x, nil
	case ir.OpPtrToInt:
		if x.P == nil {
			return RV{I: 0}, nil
		}
		return RV{I: int64(x.P.Off) + 1}, nil // opaque non-zero token
	case ir.OpIntToPtr:
		return RV{}, crashf("inttoptr not supported")
	}
	return RV{}, crashf("bad conversion %s", op)
}

// load reads a typed value at the byte offset.
func (o *MemObj) load(off int, t *ir.Type) (RV, error) {
	return o.loadSized(off, ir.SizeOf(t), t)
}

// loadSized is load with t's size already known (ir.SizeOf(t)), as the
// interpreter's compiled load holds it.
func (o *MemObj) loadSized(off, size int, t *ir.Type) (RV, error) {
	if off < 0 || off+size > len(o.Bytes) {
		return RV{}, crashf("load out of bounds (%s at %d+%d/%d)", t, off, size, len(o.Bytes))
	}
	if t.IsPtr() {
		if p, ok := o.Ptrs[off]; ok {
			return RV{P: p}, nil
		}
		return RV{}, nil
	}
	switch t.Kind {
	case ir.KFloat64:
		bits := binary.LittleEndian.Uint64(o.Bytes[off:])
		return RV{F: math.Float64frombits(bits)}, nil
	case ir.KInt1, ir.KInt8:
		return RV{I: int64(int8(o.Bytes[off]))}, nil
	case ir.KInt32:
		return RV{I: int64(int32(binary.LittleEndian.Uint32(o.Bytes[off:])))}, nil
	case ir.KInt64:
		return RV{I: int64(binary.LittleEndian.Uint64(o.Bytes[off:]))}, nil
	}
	return RV{}, crashf("load of unsupported type %s", t)
}

// store writes a typed value at the byte offset.
func (o *MemObj) store(off int, t *ir.Type, v RV) error {
	return o.storeSized(off, ir.SizeOf(t), t, v)
}

// storeSized is store with t's size already known (ir.SizeOf(t)), as the
// interpreter's compiled store holds it.
func (o *MemObj) storeSized(off, size int, t *ir.Type, v RV) error {
	if off < 0 || off+size > len(o.Bytes) {
		return crashf("store out of bounds (%s at %d+%d/%d)", t, off, size, len(o.Bytes))
	}
	if t.IsPtr() {
		if v.P != nil {
			if o.Ptrs == nil {
				o.Ptrs = make(map[int]*Ptr)
			}
			o.Ptrs[off] = v.P
		} else if o.Ptrs != nil {
			delete(o.Ptrs, off)
		}
		return nil
	}
	switch t.Kind {
	case ir.KFloat64:
		binary.LittleEndian.PutUint64(o.Bytes[off:], math.Float64bits(v.F))
	case ir.KInt1, ir.KInt8:
		o.Bytes[off] = byte(v.I)
	case ir.KInt32:
		binary.LittleEndian.PutUint32(o.Bytes[off:], uint32(v.I))
	case ir.KInt64:
		binary.LittleEndian.PutUint64(o.Bytes[off:], uint64(v.I))
	default:
		return crashf("store of unsupported type %s", t)
	}
	return nil
}
