package ir

import "fmt"

// Opcode identifies an instruction kind.
type Opcode int

// Instruction opcodes.
const (
	OpInvalid Opcode = iota

	// Memory
	OpAlloca // alloca T [, count]
	OpLoad   // load T, T* p
	OpStore  // store T v, T* p
	OpGEP    // getelementptr T, T* p, idx...

	// Integer arithmetic
	OpAdd
	OpSub
	OpMul
	OpSDiv
	OpSRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpAShr

	// Float arithmetic
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv

	// Comparisons
	OpICmp
	OpFCmp

	// Conversions
	OpTrunc
	OpSExt
	OpZExt
	OpSIToFP
	OpFPToSI
	OpBitcast
	OpPtrToInt
	OpIntToPtr

	// Other
	OpPhi
	OpSelect
	OpCall

	// Terminators
	OpBr
	OpCondBr
	OpRet
	OpUnreachable
)

var opcodeNames = [...]string{
	OpInvalid:     "invalid",
	OpAlloca:      "alloca",
	OpLoad:        "load",
	OpStore:       "store",
	OpGEP:         "getelementptr",
	OpAdd:         "add",
	OpSub:         "sub",
	OpMul:         "mul",
	OpSDiv:        "sdiv",
	OpSRem:        "srem",
	OpAnd:         "and",
	OpOr:          "or",
	OpXor:         "xor",
	OpShl:         "shl",
	OpAShr:        "ashr",
	OpFAdd:        "fadd",
	OpFSub:        "fsub",
	OpFMul:        "fmul",
	OpFDiv:        "fdiv",
	OpICmp:        "icmp",
	OpFCmp:        "fcmp",
	OpTrunc:       "trunc",
	OpSExt:        "sext",
	OpZExt:        "zext",
	OpSIToFP:      "sitofp",
	OpFPToSI:      "fptosi",
	OpBitcast:     "bitcast",
	OpPtrToInt:    "ptrtoint",
	OpIntToPtr:    "inttoptr",
	OpPhi:         "phi",
	OpSelect:      "select",
	OpCall:        "call",
	OpBr:          "br",
	OpCondBr:      "condbr",
	OpRet:         "ret",
	OpUnreachable: "unreachable",
}

// String returns the LLVM-like mnemonic of the opcode. OpCondBr prints as
// "br" in the textual form; String distinguishes them for diagnostics.
func (o Opcode) String() string {
	if int(o) < len(opcodeNames) {
		return opcodeNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsTerm reports whether the opcode terminates a basic block.
func (o Opcode) IsTerm() bool {
	switch o {
	case OpBr, OpCondBr, OpRet, OpUnreachable:
		return true
	}
	return false
}

// IsBinary reports whether the opcode is a two-operand arithmetic/logic op.
func (o Opcode) IsBinary() bool {
	switch o {
	case OpAdd, OpSub, OpMul, OpSDiv, OpSRem, OpAnd, OpOr, OpXor, OpShl,
		OpAShr, OpFAdd, OpFSub, OpFMul, OpFDiv:
		return true
	}
	return false
}

// IsConv reports whether the opcode is a conversion.
func (o Opcode) IsConv() bool {
	switch o {
	case OpTrunc, OpSExt, OpZExt, OpSIToFP, OpFPToSI, OpBitcast, OpPtrToInt, OpIntToPtr:
		return true
	}
	return false
}

// HasSideEffects reports whether the instruction may write memory, transfer
// control, or call out — i.e. whether DCE must keep it even when unused.
func (o Opcode) HasSideEffects() bool {
	switch o {
	case OpStore, OpCall, OpBr, OpCondBr, OpRet, OpUnreachable:
		return true
	}
	return false
}

// Pred is an icmp/fcmp comparison predicate.
type Pred int

// Comparison predicates (signed integer + ordered float).
const (
	PredEQ Pred = iota
	PredNE
	PredSLT
	PredSLE
	PredSGT
	PredSGE
)

var predNames = [...]string{"eq", "ne", "slt", "sle", "sgt", "sge"}

// String returns the predicate mnemonic.
func (p Pred) String() string {
	if int(p) < len(predNames) {
		return predNames[p]
	}
	return "?"
}

// FPredName returns the fcmp spelling of the predicate.
func (p Pred) FPredName() string {
	switch p {
	case PredEQ:
		return "oeq"
	case PredNE:
		return "one"
	case PredSLT:
		return "olt"
	case PredSLE:
		return "ole"
	case PredSGT:
		return "ogt"
	case PredSGE:
		return "oge"
	}
	return "?"
}

// ParsePred maps a predicate mnemonic (icmp or fcmp spelling) to a Pred.
func ParsePred(s string) (Pred, bool) {
	switch s {
	case "eq", "oeq":
		return PredEQ, true
	case "ne", "one":
		return PredNE, true
	case "slt", "olt":
		return PredSLT, true
	case "sle", "ole":
		return PredSLE, true
	case "sgt", "ogt":
		return PredSGT, true
	case "sge", "oge":
		return PredSGE, true
	}
	return 0, false
}

// Instr is a single IR instruction. The meaning of the fields depends on Op:
//
//	Alloca:  Typ = pointer to allocated type; Args optional [count]
//	Load:    Typ = loaded type; Args = [ptr]
//	Store:   Args = [value, ptr]
//	GEP:     Typ = result pointer type; Args = [ptr, indices...]
//	binary:  Typ = operand type; Args = [lhs, rhs]
//	ICmp:    Typ = I1; Cmp = predicate; Args = [lhs, rhs]
//	conv:    Typ = target type; Args = [value]
//	Phi:     Args[i] flows in from Blocks[i]
//	Select:  Args = [cond, ifTrue, ifFalse]
//	Call:    Callee = function name; Args = call args; Typ = return type
//	Br:      Blocks = [target]
//	CondBr:  Args = [cond]; Blocks = [ifTrue, ifFalse]
//	Ret:     Args = [] or [value]
type Instr struct {
	Op     Opcode
	Name   string // SSA result name without '%'; "" for void results
	Typ    *Type  // result type (Void for store/br/ret/...)
	Cmp    Pred
	Args   []Value
	Blocks []*Block
	Callee string // for OpCall
	Parent *Block

	// AllocTy is the allocated element type for OpAlloca (Typ is AllocTy*).
	AllocTy *Type
}

// Type implements Value.
func (in *Instr) Type() *Type {
	if in.Typ == nil {
		return Void
	}
	return in.Typ
}

// Ident implements Value.
func (in *Instr) Ident() string { return "%" + in.Name }

// ReplaceUses rewrites every operand equal to old with new across the whole
// function containing the instruction list given.
func ReplaceUses(f *Func, old, new Value) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if a == old {
					in.Args[i] = new
				}
			}
		}
	}
}

// MPICallName returns the callee name if the instruction is a call to an
// MPI routine (identified by the "MPI_" prefix), else "".
func (in *Instr) MPICallName() string {
	if in.Op == OpCall && len(in.Callee) > 4 && in.Callee[:4] == "MPI_" {
		return in.Callee
	}
	return ""
}
