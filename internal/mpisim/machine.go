package mpisim

import (
	"encoding/binary"
	"fmt"
	"math"
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

// Machine executes one compiled MPI rank. Its frames are flat []RV
// slices indexed by pre-assigned register slots and pooled per run.
type Machine struct {
	prog     *Program
	rank     int
	rt       *Runtime
	ar       *runState
	proc     *proc
	steps    int64
	maxSteps int64

	globals   []*MemObj
	globalRVs []RV // pre-built pointer values, one per global

	out          []byte
	outTruncated bool

	phiScratch []RV // parallel-copy staging for the widest phi edge
	argScratch []RV // argument staging for non-retaining calls
	fmtBuf     []byte
}

func newMachine(prog *Program, rank int) *Machine {
	return &Machine{prog: prog, rank: rank,
		globals:   make([]*MemObj, len(prog.globals)),
		globalRVs: make([]RV, len(prog.globals))}
}

// reset rebinds the machine to a fresh run: zeroed counters, truncation
// state, and newly initialised globals out of the run's arena.
func (m *Machine) reset(rt *Runtime, maxSteps int64) {
	m.rt, m.ar = rt, rt.ar
	m.steps, m.maxSteps = 0, maxSteps
	m.out = m.out[:0]
	m.outTruncated = false
	for i := range m.prog.globals {
		g := &m.prog.globals[i]
		obj := m.ar.newMemObj(g.name, g.size, m.rank)
		if g.str != "" {
			copy(obj.Bytes, g.str)
		} else if g.init != nil {
			_ = obj.store(0, g.elem, RV{I: g.init.Int, F: g.init.Float})
		}
		m.globals[i] = obj
		m.globalRVs[i] = RV{P: m.ar.newPtr(obj, 0)}
	}
}

// run executes main; the error (if any) is a *runErr.
func (m *Machine) run() error {
	main := m.prog.main
	if main == nil {
		return crashf("no main function")
	}
	// main's parameters read as zero; the frame is already zeroed.
	_, err := m.call(main, nil, 0)
	return err
}

const maxCallDepth = 128

func (m *Machine) call(cf *cfunc, args []RV, depth int) (RV, error) {
	if depth > maxCallDepth {
		return RV{}, crashf("call depth exceeded in @%s", cf.name)
	}
	fr := m.ar.getFrame(cf.nslots)
	n := len(args)
	if n > cf.nparams {
		n = cf.nparams
	}
	copy(fr[:n], args[:n])
	rv, err := m.exec(cf, fr, depth)
	m.ar.putFrame(fr)
	return rv, err
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

// exec runs a compiled function body to completion.
func (m *Machine) exec(cf *cfunc, fr []RV, depth int) (RV, error) {
	if cf.entry == nil {
		// Reproduce the pre-compilation engine's nil-entry panic (a
		// defined function without blocks, or a declaration-only main).
		var b *ir.Block
		_ = b.Phis()
	}
	blk := cf.entry
	moves := cf.entryMoves
	for {
		if len(moves) > 0 {
			if err := m.applyMoves(fr, moves); err != nil {
				return RV{}, err
			}
		}
		code := blk.code
		branched := false
	body:
		for i := range code {
			in := &code[i]
			m.steps++
			if m.steps > m.maxSteps {
				return RV{}, &runErr{kind: "timeout",
					msg: fmt.Sprintf("step budget exceeded in @%s", cf.name)}
			}
			// Cooperative cancellation: a rank that never blocks on MPI
			// (a compute loop) must still notice an aborted run; checking
			// every 1024 steps bounds both the check cost and how long a
			// rank can outlive its budget.
			if m.steps&1023 == 0 {
				if se := m.rt.stopNow(); se != nil {
					return RV{}, se
				}
			}
			switch in.op {
			case ir.OpBr:
				moves, blk = in.aux.moves0, in.aux.tgt0
				branched = true
				break body
			case ir.OpCondBr:
				c, err := m.evalOp(fr, &in.a)
				if err != nil {
					return RV{}, err
				}
				aux := in.aux
				if c.I != 0 {
					moves, blk = aux.moves0, aux.tgt0
				} else {
					moves, blk = aux.moves1, aux.tgt1
				}
				branched = true
				break body
			case ir.OpRet:
				if in.flag {
					return m.evalOp(fr, &in.a)
				}
				return RV{}, nil
			case ir.OpUnreachable:
				return RV{}, crashf("reached unreachable in @%s", cf.name)
			default:
				v, err := m.execInstr(fr, in, depth)
				if err != nil {
					return RV{}, err
				}
				if in.dst >= 0 {
					fr[in.dst] = v
				}
			}
		}
		if !branched {
			return RV{}, crashf("fell off block %%%s in @%s", blk.name, cf.name)
		}
	}
}

func (m *Machine) execInstr(fr []RV, in *cinstr, depth int) (RV, error) {
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
		obj := m.ar.newMemObj(in.aux.name, size*n, m.rank)
		return RV{P: m.ar.newPtr(obj, 0)}, nil

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
		m.rt.checkLocalAccess(m.rank, pv.P, size, false, in.in)
		return pv.P.Obj.loadSized(pv.P.Off, size, in.typ)

	case in.op == ir.OpStore:
		v, err := m.evalOp(fr, &in.a)
		if err != nil {
			return RV{}, err
		}
		pv, err := m.evalOp(fr, &in.b)
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
		m.rt.checkLocalAccess(m.rank, pv.P, size, true, in.in)
		return RV{}, pv.P.Obj.storeSized(pv.P.Off, size, in.typ, v)

	case in.op == ir.OpGEP:
		return m.execGEP(fr, in)

	case in.op.IsBinary():
		x, err := m.evalOp(fr, &in.a)
		if err != nil {
			return RV{}, err
		}
		y, err := m.evalOp(fr, &in.b)
		if err != nil {
			return RV{}, err
		}
		return execBinary(in.op, in.typ, x, y)

	case in.op == ir.OpICmp:
		x, err := m.evalOp(fr, &in.a)
		if err != nil {
			return RV{}, err
		}
		y, err := m.evalOp(fr, &in.b)
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
		return boolRV(intCmp(in.cmp, x.I, y.I)), nil

	case in.op == ir.OpFCmp:
		x, err := m.evalOp(fr, &in.a)
		if err != nil {
			return RV{}, err
		}
		y, err := m.evalOp(fr, &in.b)
		if err != nil {
			return RV{}, err
		}
		return boolRV(floatCmp(in.cmp, x.F, y.F)), nil

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

	case in.op == ir.OpCall:
		return m.execCall(fr, in, depth)
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
	return RV{P: m.ar.newPtr(base.P.Obj, off)}, nil
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
	return RV{P: m.ar.newPtr(base.P.Obj, off)}, nil
}

func (m *Machine) execCall(fr []RV, in *cinstr, depth int) (RV, error) {
	extra := in.aux.extra
	nargs := len(extra)
	var args []RV
	if in.ck == ckMPI {
		// MPI argument vectors may be retained (persistent requests,
		// collective slots) until the run ends: bump-allocate them.
		args = m.ar.allocRVs(nargs)
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
		return m.rt.dispatch(m, in.aux.mpiOp, args, in.in)
	case ckPrintf:
		return m.printf(args)
	case ckExit:
		return RV{}, &runErr{kind: "exit", msg: "exit called"}
	case ckSleep:
		return RV{I: 0}, nil
	case ckUndef:
		return RV{}, crashf("call to undefined @%s", in.in.Callee)
	}
	return m.call(in.aux.callee, args, depth+1)
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

func intCmp(p ir.Pred, a, b int64) bool {
	switch p {
	case ir.PredEQ:
		return a == b
	case ir.PredNE:
		return a != b
	case ir.PredSLT:
		return a < b
	case ir.PredSLE:
		return a <= b
	case ir.PredSGT:
		return a > b
	case ir.PredSGE:
		return a >= b
	}
	return false
}

func floatCmp(p ir.Pred, a, b float64) bool {
	switch p {
	case ir.PredEQ:
		return a == b
	case ir.PredNE:
		return a != b
	case ir.PredSLT:
		return a < b
	case ir.PredSLE:
		return a <= b
	case ir.PredSGT:
		return a > b
	case ir.PredSGE:
		return a >= b
	}
	return false
}

func execBinary(op ir.Opcode, typ *ir.Type, x, y RV) (RV, error) {
	switch op {
	case ir.OpFAdd:
		return RV{F: x.F + y.F}, nil
	case ir.OpFSub:
		return RV{F: x.F - y.F}, nil
	case ir.OpFMul:
		return RV{F: x.F * y.F}, nil
	case ir.OpFDiv:
		return RV{F: x.F / y.F}, nil
	}
	a, b := x.I, y.I
	var r int64
	switch op {
	case ir.OpAdd:
		r = a + b
	case ir.OpSub:
		r = a - b
	case ir.OpMul:
		r = a * b
	case ir.OpSDiv:
		if b == 0 {
			return RV{}, crashf("integer division by zero")
		}
		r = a / b
	case ir.OpSRem:
		if b == 0 {
			return RV{}, crashf("integer remainder by zero")
		}
		r = a % b
	case ir.OpAnd:
		r = a & b
	case ir.OpOr:
		r = a | b
	case ir.OpXor:
		r = a ^ b
	case ir.OpShl:
		r = a << uint(b&63)
	case ir.OpAShr:
		r = a >> uint(b&63)
	default:
		return RV{}, crashf("bad binary op %s", op)
	}
	return RV{I: truncInt(typ, r)}, nil
}

func truncInt(t *ir.Type, v int64) int64 {
	switch t.Kind {
	case ir.KInt1:
		return v & 1
	case ir.KInt8:
		return int64(int8(v))
	case ir.KInt32:
		return int64(int32(v))
	}
	return v
}

func execConv(op ir.Opcode, typ *ir.Type, x RV) (RV, error) {
	switch op {
	case ir.OpTrunc, ir.OpSExt:
		return RV{I: truncInt(typ, x.I)}, nil
	case ir.OpZExt:
		return RV{I: x.I}, nil
	case ir.OpSIToFP:
		return RV{F: float64(x.I)}, nil
	case ir.OpFPToSI:
		return RV{I: truncInt(typ, int64(x.F))}, nil
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
