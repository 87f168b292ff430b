package passes

import "mpidetect/internal/ir"

// ConstFold performs sparse constant folding: any instruction whose
// operands are all constants is evaluated and its uses rewritten; condbr on
// a constant condition becomes an unconditional branch (phi edges from the
// removed path are cleaned up). The pass iterates to a fixed point.
func ConstFold(f *ir.Func) bool {
	changedAny := false
	for {
		changed := false
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if c := foldInstr(in); c != nil {
					ir.ReplaceUses(f, in, c)
					b.RemoveInstr(in)
					changed = true
				}
			}
			if t := b.Term(); t != nil && t.Op == ir.OpCondBr {
				if c, ok := t.Args[0].(*ir.Const); ok {
					var taken, dropped *ir.Block
					if c.Int != 0 {
						taken, dropped = t.Blocks[0], t.Blocks[1]
					} else {
						taken, dropped = t.Blocks[1], t.Blocks[0]
					}
					t.Op = ir.OpBr
					t.Args = nil
					t.Blocks[0] = taken
					t.Blocks = t.Blocks[:1]
					if dropped != taken {
						removePhiEdge(dropped, b)
					}
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		changedAny = true
	}
	return changedAny
}

// removePhiEdge drops the incoming edge from pred in every phi of b.
func removePhiEdge(b, pred *ir.Block) {
	for _, phi := range b.Phis() {
		for i := 0; i < len(phi.Blocks); {
			if phi.Blocks[i] == pred {
				phi.Blocks = append(phi.Blocks[:i], phi.Blocks[i+1:]...)
				phi.Args = append(phi.Args[:i], phi.Args[i+1:]...)
			} else {
				i++
			}
		}
	}
}

func foldInstr(in *ir.Instr) *ir.Const {
	switch {
	case in.Op.IsBinary():
		x, okx := in.Args[0].(*ir.Const)
		y, oky := in.Args[1].(*ir.Const)
		if !okx || !oky || x.IsNull || y.IsNull || x.IsUndef || y.IsUndef {
			// Algebraic identities with one constant.
			return foldIdentity(in)
		}
		return foldBinary(in, x, y)
	case in.Op == ir.OpICmp:
		x, okx := in.Args[0].(*ir.Const)
		y, oky := in.Args[1].(*ir.Const)
		if !okx || !oky || x.IsUndef || y.IsUndef {
			return nil
		}
		return ir.ConstBool(cmpInts(in.Cmp, x.Int, y.Int))
	case in.Op == ir.OpFCmp:
		x, okx := in.Args[0].(*ir.Const)
		y, oky := in.Args[1].(*ir.Const)
		if !okx || !oky {
			return nil
		}
		return ir.ConstBool(cmpFloats(in.Cmp, x.Float, y.Float))
	case in.Op == ir.OpSelect:
		if c, ok := in.Args[0].(*ir.Const); ok && !c.IsUndef {
			if c.Int != 0 {
				if v, ok := in.Args[1].(*ir.Const); ok {
					return v
				}
			} else if v, ok := in.Args[2].(*ir.Const); ok {
				return v
			}
		}
	case in.Op.IsConv():
		if c, ok := in.Args[0].(*ir.Const); ok && !c.IsUndef && !c.IsNull {
			return foldConv(in, c)
		}
	}
	return nil
}

func foldIdentity(in *ir.Instr) *ir.Const {
	y, ok := in.Args[1].(*ir.Const)
	if !ok || y.IsFloat {
		return nil
	}
	// x*0 and x&0 are the only identities that fold to a constant without
	// replacing with a non-constant value; the rest are handled by DCE-level
	// simplification elsewhere.
	if y.Int == 0 && (in.Op == ir.OpMul || in.Op == ir.OpAnd) {
		return ir.ConstInt(in.Typ, 0)
	}
	return nil
}

func foldBinary(in *ir.Instr, x, y *ir.Const) *ir.Const {
	if x.IsFloat || y.IsFloat {
		var r float64
		switch in.Op {
		case ir.OpFAdd:
			r = x.Float + y.Float
		case ir.OpFSub:
			r = x.Float - y.Float
		case ir.OpFMul:
			r = x.Float * y.Float
		case ir.OpFDiv:
			if y.Float == 0 {
				return nil
			}
			r = x.Float / y.Float
		default:
			return nil
		}
		return ir.ConstFloat(r)
	}
	a, b := x.Int, y.Int
	var r int64
	switch in.Op {
	case ir.OpAdd:
		r = a + b
	case ir.OpSub:
		r = a - b
	case ir.OpMul:
		r = a * b
	case ir.OpSDiv:
		if b == 0 {
			return nil
		}
		r = a / b
	case ir.OpSRem:
		if b == 0 {
			return nil
		}
		r = a % b
	case ir.OpAnd:
		r = a & b
	case ir.OpOr:
		r = a | b
	case ir.OpXor:
		r = a ^ b
	case ir.OpShl:
		if b < 0 || b > 63 {
			return nil
		}
		r = a << uint(b)
	case ir.OpAShr:
		if b < 0 || b > 63 {
			return nil
		}
		r = a >> uint(b)
	default:
		return nil
	}
	return ir.ConstInt(in.Typ, truncToType(in.Typ, r))
}

func truncToType(t *ir.Type, v int64) int64 {
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

func cmpInts(p ir.Pred, a, b int64) bool {
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

func cmpFloats(p ir.Pred, a, b float64) bool {
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

func foldConv(in *ir.Instr, c *ir.Const) *ir.Const {
	switch in.Op {
	case ir.OpTrunc, ir.OpSExt, ir.OpZExt:
		if c.IsFloat {
			return nil
		}
		v := c.Int
		if in.Op == ir.OpZExt && c.Typ != nil {
			switch c.Typ.Kind {
			case ir.KInt1:
				v &= 1
			case ir.KInt8:
				v &= 0xff
			case ir.KInt32:
				v &= 0xffffffff
			}
		}
		return ir.ConstInt(in.Typ, truncToType(in.Typ, v))
	case ir.OpSIToFP:
		if c.IsFloat {
			return nil
		}
		return ir.ConstFloat(float64(c.Int))
	case ir.OpFPToSI:
		if !c.IsFloat {
			return nil
		}
		return ir.ConstInt(in.Typ, truncToType(in.Typ, int64(c.Float)))
	}
	return nil
}
