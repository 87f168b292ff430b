package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// This file retains the pre-rewrite line-slice parser verbatim (identifiers
// renamed) as the differential oracle for the zero-copy lexer in parse.go.
// It is compiled into test binaries only: FuzzParse and the compatibility
// tests (through export_test.go's ParseReference) assert that Parse and
// parseReference agree on every input — same module (byte-identical Print)
// and byte-identical diagnostics. It deliberately shares nothing with the
// new parser except the IR data structures and the named-struct registry
// (which is global state both must see).
//
// Do not "optimise" this file; its value is that it does not change.

// parseReference parses the textual IR syntax with the retained reference
// implementation. Semantics and diagnostics define the contract Parse must
// reproduce byte-for-byte.
func parseReference(src string) (*Module, error) {
	p := &refParser{lines: strings.Split(src, "\n")}
	return p.parseModule()
}

type refParser struct {
	lines []string
	pos   int
	mod   *Module
}

type refPendingRef struct {
	slot *Value
	name string
	typ  *Type
}

func (p *refParser) errf(format string, args ...any) error {
	return fmt.Errorf("ir: parse line %d: %s", p.pos+1, fmt.Sprintf(format, args...))
}

func (p *refParser) parseModule() (*Module, error) {
	p.mod = NewModule("parsed")
	for p.pos < len(p.lines) {
		line := strings.TrimSpace(p.lines[p.pos])
		switch {
		case line == "" || strings.HasPrefix(line, ";"):
			if strings.HasPrefix(line, "; module ") {
				p.mod.Name = strings.TrimSpace(strings.TrimPrefix(line, "; module"))
			}
			p.pos++
		case strings.HasPrefix(line, "@"):
			if err := p.parseGlobal(line); err != nil {
				return nil, err
			}
			p.pos++
		case strings.HasPrefix(line, "declare "):
			if err := p.parseDeclare(line); err != nil {
				return nil, err
			}
			p.pos++
		case strings.HasPrefix(line, "define "):
			if err := p.parseDefine(); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf("unexpected top-level %q", line)
		}
	}
	return p.mod, nil
}

func (p *refParser) parseGlobal(line string) error {
	// @name = global TYPE INIT
	eq := strings.Index(line, "=")
	if eq < 0 {
		return p.errf("malformed global")
	}
	name := strings.TrimSpace(line[1:eq])
	rest := strings.TrimSpace(line[eq+1:])
	isConst := false
	switch {
	case strings.HasPrefix(rest, "global "):
		rest = strings.TrimPrefix(rest, "global ")
	case strings.HasPrefix(rest, "constant "):
		rest = strings.TrimPrefix(rest, "constant ")
		isConst = true
	default:
		return p.errf("global %s: missing global/constant keyword", name)
	}
	typ, rest, err := refParseType(strings.TrimSpace(rest))
	if err != nil {
		return p.errf("global %s: %v", name, err)
	}
	g := &Global{Name: name, Elem: typ, Const: isConst}
	init := strings.TrimSpace(rest)
	switch {
	case init == "" || init == "zeroinitializer":
		// zero-initialised
	case strings.HasPrefix(init, `c"`):
		s, err := refUnquoteIRString(init[1:])
		if err != nil {
			return p.errf("global %s init: %v", name, err)
		}
		g.Str = s
	default:
		c, err := refParseConstToken(typ, init)
		if err != nil {
			return p.errf("global %s init: %v", name, err)
		}
		g.Init = c
	}
	p.mod.AddGlobal(g)
	return nil
}

// parseHeader parses "RET @name(T %p, T %q, ...)" returning the function
// skeleton.
func (p *refParser) parseHeader(rest string) (*Func, error) {
	ret, rest, err := refParseType(strings.TrimSpace(rest))
	if err != nil {
		return nil, err
	}
	rest = strings.TrimSpace(rest)
	if !strings.HasPrefix(rest, "@") {
		return nil, fmt.Errorf("expected @name, got %q", rest)
	}
	open := strings.Index(rest, "(")
	close := strings.LastIndex(rest, ")")
	if open < 0 || close < open {
		return nil, fmt.Errorf("malformed parameter list in %q", rest)
	}
	name := rest[1:open]
	f := &Func{Name: name}
	var ptypes []*Type
	params := strings.TrimSpace(rest[open+1 : close])
	if params != "" {
		for _, part := range refSplitTop(params, ',') {
			part = strings.TrimSpace(part)
			if part == "..." {
				f.Variadic = true
				continue
			}
			pt, prest, err := refParseType(part)
			if err != nil {
				return nil, fmt.Errorf("param %q: %v", part, err)
			}
			pname := strings.TrimSpace(prest)
			pname = strings.TrimPrefix(pname, "%")
			if pname != "" {
				f.Params = append(f.Params, &Param{Name: pname, Typ: pt})
			}
			ptypes = append(ptypes, pt)
		}
	}
	f.Sig = FuncOf(ret, ptypes...)
	return f, nil
}

func (p *refParser) parseDeclare(line string) error {
	f, err := p.parseHeader(strings.TrimPrefix(line, "declare "))
	if err != nil {
		return p.errf("declare: %v", err)
	}
	f.Decl = true
	p.mod.AddFunc(f)
	return nil
}

func (p *refParser) parseDefine() error {
	line := strings.TrimSpace(p.lines[p.pos])
	body := strings.TrimPrefix(line, "define ")
	brace := strings.LastIndex(body, "{")
	if brace < 0 {
		return p.errf("define without {")
	}
	f, err := p.parseHeader(strings.TrimSpace(body[:brace]))
	if err != nil {
		return p.errf("define: %v", err)
	}
	p.mod.AddFunc(f)
	p.pos++

	// First pass: collect block labels and their instruction lines.
	type rawBlock struct {
		b     *Block
		lines []string
		lnos  []int
	}
	var raws []*rawBlock
	var cur *rawBlock
	for p.pos < len(p.lines) {
		line := strings.TrimSpace(p.lines[p.pos])
		if line == "}" {
			p.pos++
			break
		}
		if line == "" || strings.HasPrefix(line, ";") {
			p.pos++
			continue
		}
		if strings.HasSuffix(line, ":") && !strings.ContainsAny(line, " ()[]{},") {
			b := &Block{Name: strings.TrimSuffix(line, ":"), Parent: f}
			f.Blocks = append(f.Blocks, b)
			cur = &rawBlock{b: b}
			raws = append(raws, cur)
			p.pos++
			continue
		}
		if cur == nil {
			return p.errf("instruction before first block label")
		}
		cur.lines = append(cur.lines, line)
		cur.lnos = append(cur.lnos, p.pos)
		p.pos++
	}

	// Second pass: parse instructions with value resolution. The pass
	// rewinds p.pos for error reporting, so remember where the function
	// body ended.
	endPos := p.pos
	fp := &refFuncParser{p: p, f: f, values: map[string]Value{}}
	for _, prm := range f.Params {
		fp.values[prm.Name] = prm
	}
	for _, rb := range raws {
		for i, l := range rb.lines {
			p.pos = rb.lnos[i]
			in, err := fp.parseInstr(l)
			if err != nil {
				return err
			}
			rb.b.Append(in)
			if in.Name != "" {
				fp.values[in.Name] = in
			}
		}
	}
	p.pos = endPos
	// Patch forward references.
	for _, pr := range fp.pending {
		v, ok := fp.values[pr.name]
		if !ok {
			return fmt.Errorf("ir: parse: undefined value %%%s in @%s", pr.name, f.Name)
		}
		*pr.slot = v
	}
	return nil
}

type refFuncParser struct {
	p       *refParser
	f       *Func
	values  map[string]Value
	pending []refPendingRef
}

// operand resolves a value token of the given type, deferring unknown local
// names for later patching (needed for phis that reference later defs).
func (fp *refFuncParser) operand(typ *Type, tok string, slot *Value) error {
	tok = strings.TrimSpace(tok)
	switch {
	case strings.HasPrefix(tok, "%"):
		name := tok[1:]
		if v, ok := fp.values[name]; ok {
			*slot = v
			return nil
		}
		fp.pending = append(fp.pending, refPendingRef{slot: slot, name: name, typ: typ})
		return nil
	case strings.HasPrefix(tok, "@"):
		name := tok[1:]
		if g := fp.p.mod.GlobalByName(name); g != nil {
			*slot = g
			return nil
		}
		if f := fp.p.mod.FuncByName(name); f != nil {
			*slot = f
			return nil
		}
		return fmt.Errorf("undefined global @%s", name)
	default:
		c, err := refParseConstToken(typ, tok)
		if err != nil {
			return err
		}
		*slot = c
		return nil
	}
}

// refTypedOperandTok parses "TYPE VALUE" returning the type and raw value
// token.
func refTypedOperandTok(s string) (*Type, string, error) {
	t, rest, err := refParseType(strings.TrimSpace(s))
	if err != nil {
		return nil, "", err
	}
	return t, strings.TrimSpace(rest), nil
}

func (fp *refFuncParser) block(name string) (*Block, error) {
	name = strings.TrimPrefix(strings.TrimSpace(name), "label ")
	name = strings.TrimPrefix(strings.TrimSpace(name), "%")
	b := fp.f.BlockByName(name)
	if b == nil {
		return nil, fmt.Errorf("undefined block %%%s", name)
	}
	return b, nil
}

func (fp *refFuncParser) parseInstr(line string) (*Instr, error) {
	name := ""
	if strings.HasPrefix(line, "%") {
		eq := strings.Index(line, "=")
		if eq < 0 {
			return nil, fp.p.errf("malformed instruction %q", line)
		}
		name = strings.TrimSpace(line[1:eq])
		line = strings.TrimSpace(line[eq+1:])
	}
	sp := strings.IndexByte(line, ' ')
	op := line
	rest := ""
	if sp >= 0 {
		op = line[:sp]
		rest = strings.TrimSpace(line[sp+1:])
	}
	in := &Instr{Name: name}
	var err error
	switch op {
	case "alloca":
		parts := refSplitTop(rest, ',')
		in.Op = OpAlloca
		in.AllocTy, _, err = refParseType(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fp.p.errf("alloca: %v", err)
		}
		in.Typ = PtrTo(in.AllocTy)
		if len(parts) == 2 {
			ct, cv, err := refTypedOperandTok(parts[1])
			if err != nil {
				return nil, fp.p.errf("alloca count: %v", err)
			}
			in.Args = make([]Value, 1)
			if err := fp.operand(ct, cv, &in.Args[0]); err != nil {
				return nil, fp.p.errf("alloca count: %v", err)
			}
		}
	case "load":
		parts := refSplitTop(rest, ',')
		if len(parts) != 2 {
			return nil, fp.p.errf("load wants 2 operands")
		}
		in.Op = OpLoad
		in.Typ, _, err = refParseType(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fp.p.errf("load: %v", err)
		}
		pt, pv, err := refTypedOperandTok(parts[1])
		if err != nil {
			return nil, fp.p.errf("load ptr: %v", err)
		}
		in.Args = make([]Value, 1)
		if err := fp.operand(pt, pv, &in.Args[0]); err != nil {
			return nil, fp.p.errf("load ptr: %v", err)
		}
	case "store":
		parts := refSplitTop(rest, ',')
		if len(parts) != 2 {
			return nil, fp.p.errf("store wants 2 operands")
		}
		in.Op = OpStore
		in.Typ = Void
		in.Args = make([]Value, 2)
		vt, vv, err := refTypedOperandTok(parts[0])
		if err != nil {
			return nil, fp.p.errf("store value: %v", err)
		}
		if err := fp.operand(vt, vv, &in.Args[0]); err != nil {
			return nil, fp.p.errf("store value: %v", err)
		}
		pt, pv, err := refTypedOperandTok(parts[1])
		if err != nil {
			return nil, fp.p.errf("store ptr: %v", err)
		}
		if err := fp.operand(pt, pv, &in.Args[1]); err != nil {
			return nil, fp.p.errf("store ptr: %v", err)
		}
	case "getelementptr":
		parts := refSplitTop(rest, ',')
		if len(parts) < 2 {
			return nil, fp.p.errf("gep wants >= 2 operands")
		}
		in.Op = OpGEP
		elem, _, err := refParseType(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fp.p.errf("gep: %v", err)
		}
		in.Typ = PtrTo(elem)
		in.Args = make([]Value, len(parts)-1)
		for i, part := range parts[1:] {
			t, v, err := refTypedOperandTok(part)
			if err != nil {
				return nil, fp.p.errf("gep operand: %v", err)
			}
			if err := fp.operand(t, v, &in.Args[i]); err != nil {
				return nil, fp.p.errf("gep operand: %v", err)
			}
		}
	case "icmp", "fcmp":
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return nil, fp.p.errf("%s wants predicate", op)
		}
		pred, ok := ParsePred(rest[:sp])
		if !ok {
			return nil, fp.p.errf("bad predicate %q", rest[:sp])
		}
		in.Cmp = pred
		if op == "icmp" {
			in.Op = OpICmp
		} else {
			in.Op = OpFCmp
		}
		in.Typ = I1
		parts := refSplitTop(strings.TrimSpace(rest[sp+1:]), ',')
		if len(parts) != 2 {
			return nil, fp.p.errf("%s wants 2 operands", op)
		}
		t, v, err := refTypedOperandTok(parts[0])
		if err != nil {
			return nil, fp.p.errf("%s lhs: %v", op, err)
		}
		in.Args = make([]Value, 2)
		if err := fp.operand(t, v, &in.Args[0]); err != nil {
			return nil, fp.p.errf("%s lhs: %v", op, err)
		}
		if err := fp.operand(t, strings.TrimSpace(parts[1]), &in.Args[1]); err != nil {
			return nil, fp.p.errf("%s rhs: %v", op, err)
		}
	case "phi":
		in.Op = OpPhi
		t, rest2, err := refParseType(rest)
		if err != nil {
			return nil, fp.p.errf("phi: %v", err)
		}
		in.Typ = t
		for _, arm := range refSplitTop(strings.TrimSpace(rest2), ',') {
			arm = strings.TrimSpace(arm)
			arm = strings.TrimPrefix(arm, "[")
			arm = strings.TrimSuffix(arm, "]")
			kv := strings.SplitN(arm, ",", 2)
			if len(kv) != 2 {
				return nil, fp.p.errf("phi arm %q", arm)
			}
			in.Args = append(in.Args, nil)
			if err := fp.operand(t, strings.TrimSpace(kv[0]), &in.Args[len(in.Args)-1]); err != nil {
				return nil, fp.p.errf("phi value: %v", err)
			}
			b, err := fp.block(kv[1])
			if err != nil {
				return nil, fp.p.errf("phi block: %v", err)
			}
			in.Blocks = append(in.Blocks, b)
		}
	case "select":
		in.Op = OpSelect
		parts := refSplitTop(rest, ',')
		if len(parts) != 3 {
			return nil, fp.p.errf("select wants 3 operands")
		}
		in.Args = make([]Value, 3)
		for i, part := range parts {
			t, v, err := refTypedOperandTok(part)
			if err != nil {
				return nil, fp.p.errf("select: %v", err)
			}
			if i == 1 {
				in.Typ = t
			}
			if err := fp.operand(t, v, &in.Args[i]); err != nil {
				return nil, fp.p.errf("select: %v", err)
			}
		}
	case "call":
		in.Op = OpCall
		t, rest2, err := refParseType(rest)
		if err != nil {
			return nil, fp.p.errf("call: %v", err)
		}
		in.Typ = t
		rest2 = strings.TrimSpace(rest2)
		if !strings.HasPrefix(rest2, "@") {
			return nil, fp.p.errf("call: expected @callee in %q", rest2)
		}
		open := strings.Index(rest2, "(")
		close := strings.LastIndex(rest2, ")")
		if open < 0 || close < open {
			return nil, fp.p.errf("call: malformed args")
		}
		in.Callee = rest2[1:open]
		args := strings.TrimSpace(rest2[open+1 : close])
		if args != "" {
			parts := refSplitTop(args, ',')
			in.Args = make([]Value, len(parts))
			for i, part := range parts {
				t, v, err := refTypedOperandTok(part)
				if err != nil {
					return nil, fp.p.errf("call arg: %v", err)
				}
				if err := fp.operand(t, v, &in.Args[i]); err != nil {
					return nil, fp.p.errf("call arg: %v", err)
				}
			}
		}
	case "br":
		if strings.HasPrefix(rest, "label ") {
			in.Op = OpBr
			in.Typ = Void
			b, err := fp.block(rest)
			if err != nil {
				return nil, fp.p.errf("br: %v", err)
			}
			in.Blocks = []*Block{b}
		} else {
			in.Op = OpCondBr
			in.Typ = Void
			parts := refSplitTop(rest, ',')
			if len(parts) != 3 {
				return nil, fp.p.errf("condbr wants cond + 2 labels")
			}
			t, v, err := refTypedOperandTok(parts[0])
			if err != nil {
				return nil, fp.p.errf("condbr cond: %v", err)
			}
			in.Args = make([]Value, 1)
			if err := fp.operand(t, v, &in.Args[0]); err != nil {
				return nil, fp.p.errf("condbr cond: %v", err)
			}
			bt, err := fp.block(parts[1])
			if err != nil {
				return nil, fp.p.errf("condbr: %v", err)
			}
			bf, err := fp.block(parts[2])
			if err != nil {
				return nil, fp.p.errf("condbr: %v", err)
			}
			in.Blocks = []*Block{bt, bf}
		}
	case "ret":
		in.Op = OpRet
		in.Typ = Void
		if rest != "void" && rest != "" {
			t, v, err := refTypedOperandTok(rest)
			if err != nil {
				return nil, fp.p.errf("ret: %v", err)
			}
			in.Args = make([]Value, 1)
			if err := fp.operand(t, v, &in.Args[0]); err != nil {
				return nil, fp.p.errf("ret: %v", err)
			}
		}
	case "unreachable":
		in.Op = OpUnreachable
		in.Typ = Void
	default:
		bop, ok := refBinOpByName(op)
		if ok {
			in.Op = bop
			parts := refSplitTop(rest, ',')
			if len(parts) != 2 {
				return nil, fp.p.errf("%s wants 2 operands", op)
			}
			t, v, err := refTypedOperandTok(parts[0])
			if err != nil {
				return nil, fp.p.errf("%s: %v", op, err)
			}
			in.Typ = t
			in.Args = make([]Value, 2)
			if err := fp.operand(t, v, &in.Args[0]); err != nil {
				return nil, fp.p.errf("%s: %v", op, err)
			}
			if err := fp.operand(t, strings.TrimSpace(parts[1]), &in.Args[1]); err != nil {
				return nil, fp.p.errf("%s: %v", op, err)
			}
			break
		}
		cop, ok := refConvOpByName(op)
		if ok {
			in.Op = cop
			toIdx := strings.LastIndex(rest, " to ")
			if toIdx < 0 {
				return nil, fp.p.errf("%s wants 'to'", op)
			}
			t, v, err := refTypedOperandTok(rest[:toIdx])
			if err != nil {
				return nil, fp.p.errf("%s: %v", op, err)
			}
			in.Typ, _, err = refParseType(strings.TrimSpace(rest[toIdx+4:]))
			if err != nil {
				return nil, fp.p.errf("%s: %v", op, err)
			}
			in.Args = make([]Value, 1)
			if err := fp.operand(t, v, &in.Args[0]); err != nil {
				return nil, fp.p.errf("%s: %v", op, err)
			}
			break
		}
		return nil, fp.p.errf("unknown opcode %q", op)
	}
	return in, nil
}

func refBinOpByName(s string) (Opcode, bool) {
	for op := OpAdd; op <= OpFDiv; op++ {
		if op.String() == s {
			return op, true
		}
	}
	return OpInvalid, false
}

func refConvOpByName(s string) (Opcode, bool) {
	for op := OpTrunc; op <= OpIntToPtr; op++ {
		if op.String() == s {
			return op, true
		}
	}
	return OpInvalid, false
}

// refUnquoteIRString decodes LLVM's "..." escaping with \xx hex escapes.
func refUnquoteIRString(s string) (string, error) {
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf("malformed string literal %q", s)
	}
	body := s[1 : len(s)-1]
	var sb strings.Builder
	for i := 0; i < len(body); i++ {
		if body[i] == '\\' {
			if i+2 >= len(body) {
				return "", fmt.Errorf("truncated escape in %q", s)
			}
			v, err := strconv.ParseUint(body[i+1:i+3], 16, 8)
			if err != nil {
				return "", fmt.Errorf("bad escape in %q", s)
			}
			sb.WriteByte(byte(v))
			i += 2
		} else {
			sb.WriteByte(body[i])
		}
	}
	return sb.String(), nil
}

// refParseConstToken parses an integer/float/null/undef literal of type t.
func refParseConstToken(t *Type, tok string) (*Const, error) {
	switch tok {
	case "null":
		return ConstNull(t), nil
	case "undef":
		return ConstUndef(t), nil
	case "true":
		return ConstBool(true), nil
	case "false":
		return ConstBool(false), nil
	}
	if t.IsFloat() {
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("bad float literal %q", tok)
		}
		return ConstFloat(f), nil
	}
	i, err := strconv.ParseInt(tok, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad int literal %q", tok)
	}
	return ConstInt(t, i), nil
}

// refParseType parses a leading type from s, returning the remainder.
func refParseType(s string) (*Type, string, error) {
	s = strings.TrimSpace(s)
	var base *Type
	switch {
	case strings.HasPrefix(s, "void"):
		base, s = Void, s[4:]
	case strings.HasPrefix(s, "i1") && !strings.HasPrefix(s, "i16"):
		base, s = I1, s[2:]
	case strings.HasPrefix(s, "i8"):
		base, s = I8, s[2:]
	case strings.HasPrefix(s, "i32"):
		base, s = I32, s[3:]
	case strings.HasPrefix(s, "i64"):
		base, s = I64, s[3:]
	case strings.HasPrefix(s, "double"):
		base, s = F64, s[6:]
	case strings.HasPrefix(s, "label"):
		base, s = LabelTy, s[5:]
	case strings.HasPrefix(s, "%struct."):
		rest := s[len("%struct."):]
		end := 0
		for end < len(rest) && (isIdentChar(rest[end])) {
			end++
		}
		if end == 0 {
			return nil, "", fmt.Errorf("unnamed struct type at %q", s)
		}
		name := rest[:end]
		st, ok := namedStructs[name]
		if !ok {
			st = StructOf(name)
		}
		base, s = st, rest[end:]
	case strings.HasPrefix(s, "["):
		close := refMatchBracket(s, 0, '[', ']')
		if close < 0 {
			return nil, "", fmt.Errorf("unterminated array type in %q", s)
		}
		inner := s[1:close]
		xIdx := strings.Index(inner, " x ")
		if xIdx < 0 {
			return nil, "", fmt.Errorf("malformed array type %q", inner)
		}
		n, err := strconv.Atoi(strings.TrimSpace(inner[:xIdx]))
		if err != nil {
			return nil, "", fmt.Errorf("bad array length in %q", inner)
		}
		elem, rest, err := refParseType(inner[xIdx+3:])
		if err != nil {
			return nil, "", err
		}
		if strings.TrimSpace(rest) != "" {
			return nil, "", fmt.Errorf("trailing %q in array type", rest)
		}
		base, s = ArrayOf(n, elem), s[close+1:]
	default:
		return nil, "", fmt.Errorf("unknown type at %q", s)
	}
	for strings.HasPrefix(s, "*") {
		base = PtrTo(base)
		s = s[1:]
	}
	return base, s, nil
}

// refMatchBracket returns the index of the bracket matching s[start].
func refMatchBracket(s string, start int, open, close byte) int {
	depth := 0
	for i := start; i < len(s); i++ {
		switch s[i] {
		case open:
			depth++
		case close:
			depth--
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

// refSplitTop splits s on sep at bracket depth zero ((), [], {}).
func refSplitTop(s string, sep byte) []string {
	var parts []string
	depth := 0
	last := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[', '{':
			depth++
		case ')', ']', '}':
			depth--
		default:
			if s[i] == sep && depth == 0 {
				parts = append(parts, s[last:i])
				last = i + 1
			}
		}
	}
	parts = append(parts, s[last:])
	return parts
}
