package ir

// What the arithmetic instructions compute, defined once for the two
// places that evaluate IR: the -Os constant folder and the simulator.
// Each caller decides what an operand outside an operation's domain
// means before it calls in (the folder declines to fold, the simulator
// crashes or masks), so these functions never see one.

// IntBinary returns a op b for an integer binary opcode, wrapped to t's
// width (see Wrap), and false for any other opcode. The divisor of sdiv
// and srem must be nonzero and a shift amount must lie in [0, 63].
func IntBinary(op Opcode, t *Type, a, b int64) (int64, bool) {
	var r int64
	switch op {
	case OpAdd:
		r = a + b
	case OpSub:
		r = a - b
	case OpMul:
		r = a * b
	case OpSDiv:
		r = a / b
	case OpSRem:
		r = a % b
	case OpAnd:
		r = a & b
	case OpOr:
		r = a | b
	case OpXor:
		r = a ^ b
	case OpShl:
		r = a << uint(b)
	case OpAShr:
		r = a >> uint(b)
	default:
		return 0, false
	}
	return Wrap(t, r), true
}

// FloatBinary returns a op b for a float binary opcode, and false for any
// other opcode. A zero divisor gives an IEEE infinity or NaN.
func FloatBinary(op Opcode, a, b float64) (float64, bool) {
	switch op {
	case OpFAdd:
		return a + b, true
	case OpFSub:
		return a - b, true
	case OpFMul:
		return a * b, true
	case OpFDiv:
		return a / b, true
	}
	return 0, false
}

// ZExt zero-extends v, an integer of type from, to type to: the bits
// above from's width are cleared before v takes to's width, so zext i8 -1
// to i32 is 255. A nil from (an untyped constant) and i64 keep all 64
// bits.
func ZExt(from, to *Type, v int64) int64 {
	if from != nil {
		switch from.Kind {
		case KInt1:
			v &= 1
		case KInt8:
			v &= 0xff
		case KInt32:
			v &= 0xffffffff
		}
	}
	return Wrap(to, v)
}

// Wrap truncates v to the width of the integer type t and sign-extends
// it back: i1 keeps its low bit (0 or 1), i8 and i32 their signed value.
// Any other type keeps all 64 bits.
func Wrap(t *Type, v int64) int64 {
	switch t.Kind {
	case KInt1:
		return v & 1
	case KInt8:
		return int64(int8(v))
	case KInt32:
		return int64(int32(v))
	}
	return v
}

// Compare reports whether the comparison p holds for a and b: signed
// for icmp's integers, ordered for fcmp's floats, so every predicate but
// ne is false when either float is NaN.
func Compare[T int64 | float64](p Pred, a, b T) bool {
	switch p {
	case PredEQ:
		return a == b
	case PredNE:
		return a != b
	case PredSLT:
		return a < b
	case PredSLE:
		return a <= b
	case PredSGT:
		return a > b
	case PredSGE:
		return a >= b
	}
	return false
}
