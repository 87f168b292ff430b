package ir

import (
	"fmt"
	"strings"
)

// Print renders the module in the textual IR syntax accepted by Parse.
func Print(m *Module) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; module %s\n", m.Name)
	for _, g := range m.Globals {
		kw := "global"
		if g.Const {
			kw = "constant"
		}
		init := "zeroinitializer"
		if g.Init != nil {
			init = g.Init.Ident()
		} else if g.Str != "" {
			init = "c" + quoteIRString(g.Str)
		}
		fmt.Fprintf(&sb, "@%s = %s %s %s\n", g.Name, kw, g.Elem, init)
	}
	if len(m.Globals) > 0 {
		sb.WriteByte('\n')
	}
	for i, f := range m.Funcs {
		if i > 0 {
			sb.WriteByte('\n')
		}
		printFunc(&sb, f)
	}
	return sb.String()
}

func printFunc(sb *strings.Builder, f *Func) {
	var params []string
	if len(f.Params) > 0 {
		params = make([]string, len(f.Params))
		for i, p := range f.Params {
			params[i] = fmt.Sprintf("%s %%%s", p.Typ, p.Name)
		}
	} else {
		// Declarations without named parameters print types only.
		params = make([]string, len(f.Sig.Params))
		for i, t := range f.Sig.Params {
			params[i] = t.String()
		}
	}
	variadic := ""
	if f.Variadic {
		variadic = ", ..."
		if len(params) == 0 {
			variadic = "..."
		}
	}
	if f.Decl {
		fmt.Fprintf(sb, "declare %s @%s(%s%s)\n", f.Sig.Ret, f.Name, strings.Join(params, ", "), variadic)
		return
	}
	fmt.Fprintf(sb, "define %s @%s(%s%s) {\n", f.Sig.Ret, f.Name, strings.Join(params, ", "), variadic)
	for _, b := range f.Blocks {
		fmt.Fprintf(sb, "%s:\n", b.Name)
		for _, in := range b.Instrs {
			sb.WriteString("  ")
			sb.WriteString(FormatInstr(in))
			sb.WriteByte('\n')
		}
	}
	sb.WriteString("}\n")
}

// quoteIRString renders LLVM's c"..." escaping (\xx hex for non-printables).
func quoteIRString(s string) string {
	var sb strings.Builder
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c < 0x7f && c != '"' && c != '\\' {
			sb.WriteByte(c)
		} else {
			fmt.Fprintf(&sb, "\\%02X", c)
		}
	}
	sb.WriteByte('"')
	return sb.String()
}

func typedOperand(v Value) string {
	return v.Type().String() + " " + v.Ident()
}

// FormatInstr renders a single instruction in textual syntax.
func FormatInstr(in *Instr) string {
	lhs := ""
	if in.Typ != nil && in.Typ.Kind != KVoid && in.Op != OpStore {
		lhs = "%" + in.Name + " = "
	}
	switch in.Op {
	case OpAlloca:
		if len(in.Args) == 1 {
			return fmt.Sprintf("%salloca %s, %s", lhs, in.AllocTy, typedOperand(in.Args[0]))
		}
		return fmt.Sprintf("%salloca %s", lhs, in.AllocTy)
	case OpLoad:
		return fmt.Sprintf("%sload %s, %s", lhs, in.Typ, typedOperand(in.Args[0]))
	case OpStore:
		return fmt.Sprintf("store %s, %s", typedOperand(in.Args[0]), typedOperand(in.Args[1]))
	case OpGEP:
		parts := make([]string, 0, len(in.Args))
		for _, a := range in.Args {
			parts = append(parts, typedOperand(a))
		}
		return fmt.Sprintf("%sgetelementptr %s, %s", lhs, in.Typ.Elem, strings.Join(parts, ", "))
	case OpICmp:
		return fmt.Sprintf("%sicmp %s %s, %s", lhs, in.Cmp, typedOperand(in.Args[0]), in.Args[1].Ident())
	case OpFCmp:
		return fmt.Sprintf("%sfcmp %s %s, %s", lhs, in.Cmp.FPredName(), typedOperand(in.Args[0]), in.Args[1].Ident())
	case OpPhi:
		parts := make([]string, len(in.Args))
		for i := range in.Args {
			parts[i] = fmt.Sprintf("[ %s, %%%s ]", in.Args[i].Ident(), in.Blocks[i].Name)
		}
		return fmt.Sprintf("%sphi %s %s", lhs, in.Typ, strings.Join(parts, ", "))
	case OpSelect:
		return fmt.Sprintf("%sselect %s, %s, %s", lhs,
			typedOperand(in.Args[0]), typedOperand(in.Args[1]), typedOperand(in.Args[2]))
	case OpCall:
		parts := make([]string, len(in.Args))
		for i, a := range in.Args {
			parts[i] = typedOperand(a)
		}
		return fmt.Sprintf("%scall %s @%s(%s)", lhs, in.Type(), in.Callee, strings.Join(parts, ", "))
	case OpBr:
		return fmt.Sprintf("br label %%%s", in.Blocks[0].Name)
	case OpCondBr:
		return fmt.Sprintf("br %s, label %%%s, label %%%s",
			typedOperand(in.Args[0]), in.Blocks[0].Name, in.Blocks[1].Name)
	case OpRet:
		if len(in.Args) == 0 {
			return "ret void"
		}
		return "ret " + typedOperand(in.Args[0])
	case OpUnreachable:
		return "unreachable"
	case opReleased:
		panic("ir: printing an instruction of a released module")
	default:
		if in.Op.IsBinary() {
			return fmt.Sprintf("%s%s %s, %s", lhs, in.Op, typedOperand(in.Args[0]), in.Args[1].Ident())
		}
		if in.Op.IsConv() {
			return fmt.Sprintf("%s%s %s to %s", lhs, in.Op, typedOperand(in.Args[0]), in.Typ)
		}
	}
	return fmt.Sprintf("%s<%s?>", lhs, in.Op)
}
