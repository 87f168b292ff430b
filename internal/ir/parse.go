package ir

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"mpidetect/internal/intern"
)

// The parser is the zero-copy rewrite of the original line-slice
// implementation, which survives only as the test-only differential oracle
// in parse_reference_test.go. It scans the source string directly (no
// strings.Split line slice), every token is a substring of the input (no
// per-token copies), opcode dispatch resolves against an interned keyword
// table instead of scanning opcodeNames, and every node — instructions,
// operand and target lists, constants, blocks, functions, globals,
// parameters, per-mention array and pointer types, and exact-size block
// and function lists — is bump-allocated from the module's arena
// (arena.go). Modules and diagnostics — messages and line numbers — are
// byte-identical to the reference parser's; FuzzParse and
// TestParseMatchesReference enforce that.
//
// Tokens (instruction names, callees, block labels) alias the source string,
// so a parsed module keeps its source text alive until Module.Release
// clears its arena. Modules and their sources have the same lifetime
// everywhere in the pipeline, and the old parser's strings.Split
// substrings aliased the source just the same.

// Named struct registry: the textual form prints named structs as
// %struct.NAME, so the parser needs their definitions.
var namedStructs = map[string]*Type{}

// ptrCache memoises PtrTo for the scalar singletons and registered structs
// (two levels deep: T* and T**), so parsing the ubiquitous pointer types
// reuses one shared immutable Type instead of allocating per mention. It is
// populated at init / RegisterStruct time only and is read-only while
// parsing, under the same register-before-parse contract as namedStructs.
var ptrCache = map[*Type]*Type{}

func cachePtrsTo(base *Type) {
	p1 := PtrTo(base)
	ptrCache[base] = p1
	ptrCache[p1] = PtrTo(p1)
}

func init() {
	for _, t := range []*Type{Void, I1, I8, I32, I64, F64, LabelTy} {
		cachePtrsTo(t)
	}
}

// ptrTo is PtrTo with the shared-singleton fast path, allocating any
// other pointer type from the arena.
func (a *arena) ptrTo(t *Type) *Type {
	if p, ok := ptrCache[t]; ok {
		return p
	}
	p := a.newType()
	p.Kind, p.Elem = KPtr, t
	return p
}

// RegisterStruct registers a named struct type for the parser. It returns
// the registered type so callers can use it directly.
func RegisterStruct(t *Type) *Type {
	if t.Kind != KStruct || t.SName == "" {
		panic("ir: RegisterStruct requires a named struct")
	}
	namedStructs[t.SName] = t
	cachePtrsTo(t)
	return t
}

// StatusType is the modelled MPI_Status struct (source, tag, error).
var StatusType = RegisterStruct(StructOf("MPI_Status", I32, I32, I32))

// opTab interns every non-special opcode mnemonic (binary arithmetic and
// conversions); parseInstr's fallback resolves the token with one lookup
// instead of a linear scan over opcodeNames.
var (
	opTab  = intern.New()
	opByID []Opcode
)

func init() {
	for op := OpAdd; op <= OpFDiv; op++ {
		opTab.Intern(op.String())
		opByID = append(opByID, op)
	}
	for op := OpTrunc; op <= OpIntToPtr; op++ {
		opTab.Intern(op.String())
		opByID = append(opByID, op)
	}
}

// Parse parses the textual IR syntax produced by Print. The module's
// nodes come from an arena; a serving path that is done with the module
// hands the arena on with Module.Release.
func Parse(src string) (*Module, error) {
	p := parserPool.Get().(*parser)
	p.src = src
	p.pos = -1
	p.mod = NewModule("parsed")
	p.mod.arena = takeArena()
	p.a = p.mod.arena
	m, err := p.parseModule()
	p.release()
	if err != nil {
		m.Release()
		return nil, err
	}
	return m, nil
}

// MustParse is Parse that panics on error, for tests and fixtures.
func MustParse(src string) *Module {
	m, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return m
}

var parserPool = sync.Pool{New: func() any { return new(parser) }}

type parser struct {
	// Line scanner state. pos is the index of the line most recently read
	// (0-based, so errf reports pos+1), matching the line numbering of the
	// reference parser exactly.
	src string
	off int
	pos int
	eof bool
	cur string

	mod *Module
	a   *arena // mod's arena: every node the parse makes comes from it

	// Per-function state (reset at each define).
	curFunc *Func
	values  map[string]Value
	pending []pendingRef

	// Pooled scratch reused across parses. Everything that can hold a
	// source substring or a module node is cleared in release, so a pooled
	// parser pins neither a caller's input nor a module's arena.
	parts    []string
	rawLines []string
	rawLnos  []int32
	spans    []blockSpan
	funcs    []*Func   // the module's functions until the exact list is cut
	globals  []*Global // likewise its globals
}

type blockSpan struct {
	b     *Block
	start int
}

type pendingRef struct {
	slot *Value
	name string
	typ  *Type
}

// nextLine advances to the next line, mirroring strings.Split(src, "\n")
// boundaries (a trailing newline yields a final empty line; empty input is
// one empty line).
func (p *parser) nextLine() bool {
	if p.eof {
		return false
	}
	p.pos++
	if i := strings.IndexByte(p.src[p.off:], '\n'); i >= 0 {
		p.cur = p.src[p.off : p.off+i]
		p.off += i + 1
	} else {
		p.cur = p.src[p.off:]
		p.eof = true
	}
	return true
}

// release returns the parser to the pool with every source and module
// reference dropped.
func (p *parser) release() {
	p.src, p.cur = "", ""
	p.off, p.eof = 0, false
	p.mod, p.a, p.curFunc = nil, nil, nil
	clear(p.values)
	p.pending = clearSlice(p.pending)
	p.parts = clearSlice(p.parts)
	p.rawLines = clearSlice(p.rawLines)
	p.rawLnos = p.rawLnos[:0]
	p.spans = clearSlice(p.spans)
	p.funcs = clearSlice(p.funcs)
	p.globals = clearSlice(p.globals)
	parserPool.Put(p)
}

// clearSlice zeroes s's elements, dropping their references, and
// truncates it for reuse.
func clearSlice[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// split splits s on sep at bracket depth zero into the parser's reused
// scratch buffer. No production path splits while iterating a previous
// split's result, so one shared buffer suffices (the reference parser's
// per-call allocation was the dominant per-instruction cost).
func (p *parser) split(s string, sep byte) []string {
	p.parts = appendSplitTop(p.parts[:0], s, sep)
	return p.parts
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("ir: parse line %d: %s", p.pos+1, fmt.Sprintf(format, args...))
}

// parseModule parses the source into p.mod. The module is returned even
// on error, for Parse to release.
func (p *parser) parseModule() (*Module, error) {
	for p.nextLine() {
		line := strings.TrimSpace(p.cur)
		switch {
		case line == "" || strings.HasPrefix(line, ";"):
			if strings.HasPrefix(line, "; module ") {
				p.mod.Name = strings.TrimSpace(strings.TrimPrefix(line, "; module"))
			}
		case strings.HasPrefix(line, "@"):
			if err := p.parseGlobal(line); err != nil {
				return p.mod, err
			}
		case strings.HasPrefix(line, "declare "):
			if err := p.parseDeclare(line); err != nil {
				return p.mod, err
			}
		case strings.HasPrefix(line, "define "):
			if err := p.parseDefine(line); err != nil {
				return p.mod, err
			}
		default:
			return p.mod, p.errf("unexpected top-level %q", line)
		}
	}
	// Cut the exact-size lists the module keeps.
	p.mod.Funcs = append(p.a.newFuncList(len(p.funcs))[:0], p.funcs...)
	p.mod.Globals = append(p.a.newGlobalList(len(p.globals))[:0], p.globals...)
	return p.mod, nil
}

// addFunc appends f to the module's functions, which live in the parser's
// scratch until parseModule cuts the exact list.
func (p *parser) addFunc(f *Func) {
	f.Mod = p.mod
	p.funcs = append(p.funcs, f)
	p.mod.Funcs = p.funcs
}

func (p *parser) parseGlobal(line string) error {
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
	typ, rest, err := p.a.parseType(strings.TrimSpace(rest))
	if err != nil {
		return p.errf("global %s: %v", name, err)
	}
	g := p.a.newGlobal()
	g.Name, g.Elem, g.Const = name, typ, isConst
	init := strings.TrimSpace(rest)
	switch {
	case init == "" || init == "zeroinitializer":
		// zero-initialised
	case strings.HasPrefix(init, `c"`):
		s, err := unquoteIRString(init[1:])
		if err != nil {
			return p.errf("global %s init: %v", name, err)
		}
		g.Str = s
	default:
		c, err := p.parseConst(typ, init)
		if err != nil {
			return p.errf("global %s init: %v", name, err)
		}
		g.Init = c
	}
	p.globals = append(p.globals, g)
	p.mod.Globals = p.globals
	return nil
}

// parseHeader parses "RET @name(T %p, T %q, ...)" returning the function
// skeleton.
func (p *parser) parseHeader(rest string) (*Func, error) {
	ret, rest, err := p.a.parseType(strings.TrimSpace(rest))
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
	f := p.a.newFunc()
	f.Name = name
	var ptypes []*Type
	params := strings.TrimSpace(rest[open+1 : close])
	if params != "" {
		parts := p.split(params, ',')
		f.Params = p.a.newParamList(len(parts))
		ptypes = p.a.newTypeList(len(parts))
		for _, part := range parts {
			part = strings.TrimSpace(part)
			if part == "..." {
				f.Variadic = true
				continue
			}
			pt, prest, err := p.a.parseType(part)
			if err != nil {
				return nil, fmt.Errorf("param %q: %v", part, err)
			}
			pname := strings.TrimSpace(prest)
			pname = strings.TrimPrefix(pname, "%")
			if pname != "" {
				prm := p.a.newParam()
				prm.Name, prm.Typ = pname, pt
				f.Params = append(f.Params, prm)
			}
			ptypes = append(ptypes, pt)
		}
	}
	sig := p.a.newType()
	sig.Kind, sig.Ret, sig.Params = KFunc, ret, ptypes
	f.Sig = sig
	return f, nil
}

func (p *parser) parseDeclare(line string) error {
	f, err := p.parseHeader(strings.TrimPrefix(line, "declare "))
	if err != nil {
		return p.errf("declare: %v", err)
	}
	f.Decl = true
	p.addFunc(f)
	return nil
}

func (p *parser) parseDefine(line string) error {
	body := strings.TrimPrefix(line, "define ")
	brace := strings.LastIndex(body, "{")
	if brace < 0 {
		return p.errf("define without {")
	}
	f, err := p.parseHeader(strings.TrimSpace(body[:brace]))
	if err != nil {
		return p.errf("define: %v", err)
	}
	p.addFunc(f)

	// First pass: collect block labels and instruction line spans into the
	// pooled scratch (flat line list, one span per block).
	p.rawLines = p.rawLines[:0]
	p.rawLnos = p.rawLnos[:0]
	p.spans = p.spans[:0]
	for p.nextLine() {
		line := strings.TrimSpace(p.cur)
		if line == "}" {
			break
		}
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		if strings.HasSuffix(line, ":") && !strings.Contains(line, " ") {
			b := p.a.newBlock()
			b.Name = strings.TrimSuffix(line, ":")
			b.Parent = f
			p.spans = append(p.spans, blockSpan{b: b, start: len(p.rawLines)})
			continue
		}
		if len(p.spans) == 0 {
			return p.errf("instruction before first block label")
		}
		p.rawLines = append(p.rawLines, line)
		p.rawLnos = append(p.rawLnos, int32(p.pos))
	}

	f.Blocks = p.a.newBlockPtrs(len(p.spans))
	for i, sp := range p.spans {
		f.Blocks[i] = sp.b
	}

	// Second pass: parse instructions with value resolution. The pass
	// rewinds p.pos per instruction for error reporting, so remember where
	// the function body ended.
	endPos := p.pos
	p.curFunc = f
	if p.values == nil {
		p.values = make(map[string]Value, 32)
	} else {
		clear(p.values)
	}
	p.pending = p.pending[:0]
	for _, prm := range f.Params {
		p.values[prm.Name] = prm
	}
	for si, sp := range p.spans {
		end := len(p.rawLines)
		if si+1 < len(p.spans) {
			end = p.spans[si+1].start
		}
		sp.b.Instrs = p.a.newInstrList(end - sp.start)
		for k := sp.start; k < end; k++ {
			p.pos = int(p.rawLnos[k])
			in, err := p.parseInstr(p.rawLines[k])
			if err != nil {
				return err
			}
			sp.b.Append(in)
			if in.Name != "" {
				p.values[in.Name] = in
			}
		}
	}
	p.pos = endPos
	// Patch forward references.
	for i := range p.pending {
		pr := &p.pending[i]
		v, ok := p.values[pr.name]
		if !ok {
			return fmt.Errorf("ir: parse: undefined value %%%s in @%s", pr.name, f.Name)
		}
		*pr.slot = v
	}
	return nil
}

// operand resolves a value token of the given type, deferring unknown local
// names for later patching (needed for phis that reference later defs).
func (p *parser) operand(typ *Type, tok string, slot *Value) error {
	tok = strings.TrimSpace(tok)
	switch {
	case strings.HasPrefix(tok, "%"):
		name := tok[1:]
		if v, ok := p.values[name]; ok {
			*slot = v
			return nil
		}
		p.pending = append(p.pending, pendingRef{slot: slot, name: name, typ: typ})
		return nil
	case strings.HasPrefix(tok, "@"):
		name := tok[1:]
		if g := p.mod.GlobalByName(name); g != nil {
			*slot = g
			return nil
		}
		if f := p.mod.FuncByName(name); f != nil {
			*slot = f
			return nil
		}
		return fmt.Errorf("undefined global @%s", name)
	default:
		c, err := p.parseConst(typ, tok)
		if err != nil {
			return err
		}
		*slot = c
		return nil
	}
}

// typedOperandTok parses "TYPE VALUE" returning the type and raw value token.
func (a *arena) typedOperandTok(s string) (*Type, string, error) {
	t, rest, err := a.parseType(strings.TrimSpace(s))
	if err != nil {
		return nil, "", err
	}
	return t, strings.TrimSpace(rest), nil
}

func (p *parser) block(name string) (*Block, error) {
	name = strings.TrimPrefix(strings.TrimSpace(name), "label ")
	name = strings.TrimPrefix(strings.TrimSpace(name), "%")
	b := p.curFunc.BlockByName(name)
	if b == nil {
		return nil, fmt.Errorf("undefined block %%%s", name)
	}
	return b, nil
}

func (p *parser) parseInstr(line string) (*Instr, error) {
	name := ""
	if strings.HasPrefix(line, "%") {
		eq := strings.Index(line, "=")
		if eq < 0 {
			return nil, p.errf("malformed instruction %q", line)
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
	in := p.a.newInstr()
	in.Name = name
	var err error
	switch op {
	case "alloca":
		parts := p.split(rest, ',')
		in.Op = OpAlloca
		in.AllocTy, _, err = p.a.parseType(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, p.errf("alloca: %v", err)
		}
		in.Typ = p.a.ptrTo(in.AllocTy)
		if len(parts) == 2 {
			ct, cv, err := p.a.typedOperandTok(parts[1])
			if err != nil {
				return nil, p.errf("alloca count: %v", err)
			}
			in.Args = p.a.newArgs(1)
			if err := p.operand(ct, cv, &in.Args[0]); err != nil {
				return nil, p.errf("alloca count: %v", err)
			}
		}
	case "load":
		parts := p.split(rest, ',')
		if len(parts) != 2 {
			return nil, p.errf("load wants 2 operands")
		}
		in.Op = OpLoad
		in.Typ, _, err = p.a.parseType(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, p.errf("load: %v", err)
		}
		pt, pv, err := p.a.typedOperandTok(parts[1])
		if err != nil {
			return nil, p.errf("load ptr: %v", err)
		}
		in.Args = p.a.newArgs(1)
		if err := p.operand(pt, pv, &in.Args[0]); err != nil {
			return nil, p.errf("load ptr: %v", err)
		}
	case "store":
		parts := p.split(rest, ',')
		if len(parts) != 2 {
			return nil, p.errf("store wants 2 operands")
		}
		in.Op = OpStore
		in.Typ = Void
		in.Args = p.a.newArgs(2)
		vt, vv, err := p.a.typedOperandTok(parts[0])
		if err != nil {
			return nil, p.errf("store value: %v", err)
		}
		if err := p.operand(vt, vv, &in.Args[0]); err != nil {
			return nil, p.errf("store value: %v", err)
		}
		pt, pv, err := p.a.typedOperandTok(parts[1])
		if err != nil {
			return nil, p.errf("store ptr: %v", err)
		}
		if err := p.operand(pt, pv, &in.Args[1]); err != nil {
			return nil, p.errf("store ptr: %v", err)
		}
	case "getelementptr":
		parts := p.split(rest, ',')
		if len(parts) < 2 {
			return nil, p.errf("gep wants >= 2 operands")
		}
		in.Op = OpGEP
		elem, _, err := p.a.parseType(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, p.errf("gep: %v", err)
		}
		in.Typ = p.a.ptrTo(elem)
		in.Args = p.a.newArgs(len(parts) - 1)
		for i, part := range parts[1:] {
			t, v, err := p.a.typedOperandTok(part)
			if err != nil {
				return nil, p.errf("gep operand: %v", err)
			}
			if err := p.operand(t, v, &in.Args[i]); err != nil {
				return nil, p.errf("gep operand: %v", err)
			}
		}
	case "icmp", "fcmp":
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return nil, p.errf("%s wants predicate", op)
		}
		pred, ok := ParsePred(rest[:sp])
		if !ok {
			return nil, p.errf("bad predicate %q", rest[:sp])
		}
		in.Cmp = pred
		if op == "icmp" {
			in.Op = OpICmp
		} else {
			in.Op = OpFCmp
		}
		in.Typ = I1
		parts := p.split(strings.TrimSpace(rest[sp+1:]), ',')
		if len(parts) != 2 {
			return nil, p.errf("%s wants 2 operands", op)
		}
		t, v, err := p.a.typedOperandTok(parts[0])
		if err != nil {
			return nil, p.errf("%s lhs: %v", op, err)
		}
		in.Args = p.a.newArgs(2)
		if err := p.operand(t, v, &in.Args[0]); err != nil {
			return nil, p.errf("%s lhs: %v", op, err)
		}
		if err := p.operand(t, strings.TrimSpace(parts[1]), &in.Args[1]); err != nil {
			return nil, p.errf("%s rhs: %v", op, err)
		}
	case "phi":
		in.Op = OpPhi
		t, rest2, err := p.a.parseType(rest)
		if err != nil {
			return nil, p.errf("phi: %v", err)
		}
		in.Typ = t
		arms := p.split(strings.TrimSpace(rest2), ',')
		in.Args = p.a.newArgs(len(arms))
		in.Blocks = p.a.newBlockPtrs(len(arms))
		for ai, arm := range arms {
			arm = strings.TrimSpace(arm)
			arm = strings.TrimPrefix(arm, "[")
			arm = strings.TrimSuffix(arm, "]")
			// First-comma split, matching strings.SplitN(arm, ",", 2)
			// without the per-arm slice allocation.
			ci := strings.IndexByte(arm, ',')
			if ci < 0 {
				return nil, p.errf("phi arm %q", arm)
			}
			if err := p.operand(t, strings.TrimSpace(arm[:ci]), &in.Args[ai]); err != nil {
				return nil, p.errf("phi value: %v", err)
			}
			b, err := p.block(arm[ci+1:])
			if err != nil {
				return nil, p.errf("phi block: %v", err)
			}
			in.Blocks[ai] = b
		}
	case "select":
		in.Op = OpSelect
		parts := p.split(rest, ',')
		if len(parts) != 3 {
			return nil, p.errf("select wants 3 operands")
		}
		in.Args = p.a.newArgs(3)
		for i, part := range parts {
			t, v, err := p.a.typedOperandTok(part)
			if err != nil {
				return nil, p.errf("select: %v", err)
			}
			if i == 1 {
				in.Typ = t
			}
			if err := p.operand(t, v, &in.Args[i]); err != nil {
				return nil, p.errf("select: %v", err)
			}
		}
	case "call":
		in.Op = OpCall
		t, rest2, err := p.a.parseType(rest)
		if err != nil {
			return nil, p.errf("call: %v", err)
		}
		in.Typ = t
		rest2 = strings.TrimSpace(rest2)
		if !strings.HasPrefix(rest2, "@") {
			return nil, p.errf("call: expected @callee in %q", rest2)
		}
		open := strings.Index(rest2, "(")
		close := strings.LastIndex(rest2, ")")
		if open < 0 || close < open {
			return nil, p.errf("call: malformed args")
		}
		in.Callee = rest2[1:open]
		args := strings.TrimSpace(rest2[open+1 : close])
		if args != "" {
			parts := p.split(args, ',')
			in.Args = p.a.newArgs(len(parts))
			for i, part := range parts {
				t, v, err := p.a.typedOperandTok(part)
				if err != nil {
					return nil, p.errf("call arg: %v", err)
				}
				if err := p.operand(t, v, &in.Args[i]); err != nil {
					return nil, p.errf("call arg: %v", err)
				}
			}
		}
	case "br":
		if strings.HasPrefix(rest, "label ") {
			in.Op = OpBr
			in.Typ = Void
			b, err := p.block(rest)
			if err != nil {
				return nil, p.errf("br: %v", err)
			}
			in.Blocks = p.a.newBlockPtrs(1)
			in.Blocks[0] = b
		} else {
			in.Op = OpCondBr
			in.Typ = Void
			parts := p.split(rest, ',')
			if len(parts) != 3 {
				return nil, p.errf("condbr wants cond + 2 labels")
			}
			t, v, err := p.a.typedOperandTok(parts[0])
			if err != nil {
				return nil, p.errf("condbr cond: %v", err)
			}
			in.Args = p.a.newArgs(1)
			if err := p.operand(t, v, &in.Args[0]); err != nil {
				return nil, p.errf("condbr cond: %v", err)
			}
			bt, err := p.block(parts[1])
			if err != nil {
				return nil, p.errf("condbr: %v", err)
			}
			bf, err := p.block(parts[2])
			if err != nil {
				return nil, p.errf("condbr: %v", err)
			}
			in.Blocks = p.a.newBlockPtrs(2)
			in.Blocks[0], in.Blocks[1] = bt, bf
		}
	case "ret":
		in.Op = OpRet
		in.Typ = Void
		if rest != "void" && rest != "" {
			t, v, err := p.a.typedOperandTok(rest)
			if err != nil {
				return nil, p.errf("ret: %v", err)
			}
			in.Args = p.a.newArgs(1)
			if err := p.operand(t, v, &in.Args[0]); err != nil {
				return nil, p.errf("ret: %v", err)
			}
		}
	case "unreachable":
		in.Op = OpUnreachable
		in.Typ = Void
	default:
		id, ok := opTab.Resolve(op)
		if !ok {
			return nil, p.errf("unknown opcode %q", op)
		}
		o := opByID[id]
		if o.IsBinary() {
			in.Op = o
			parts := p.split(rest, ',')
			if len(parts) != 2 {
				return nil, p.errf("%s wants 2 operands", op)
			}
			t, v, err := p.a.typedOperandTok(parts[0])
			if err != nil {
				return nil, p.errf("%s: %v", op, err)
			}
			in.Typ = t
			in.Args = p.a.newArgs(2)
			if err := p.operand(t, v, &in.Args[0]); err != nil {
				return nil, p.errf("%s: %v", op, err)
			}
			if err := p.operand(t, strings.TrimSpace(parts[1]), &in.Args[1]); err != nil {
				return nil, p.errf("%s: %v", op, err)
			}
			break
		}
		// Conversion op.
		in.Op = o
		toIdx := strings.LastIndex(rest, " to ")
		if toIdx < 0 {
			return nil, p.errf("%s wants 'to'", op)
		}
		t, v, err := p.a.typedOperandTok(rest[:toIdx])
		if err != nil {
			return nil, p.errf("%s: %v", op, err)
		}
		in.Typ, _, err = p.a.parseType(strings.TrimSpace(rest[toIdx+4:]))
		if err != nil {
			return nil, p.errf("%s: %v", op, err)
		}
		in.Args = p.a.newArgs(1)
		if err := p.operand(t, v, &in.Args[0]); err != nil {
			return nil, p.errf("%s: %v", op, err)
		}
	}
	return in, nil
}

// parseConst parses an integer/float/null/undef literal of type t,
// allocating from the parser's arena.
func (p *parser) parseConst(t *Type, tok string) (*Const, error) {
	c := p.a.newConst()
	if err := fillConst(c, t, tok); err != nil {
		return nil, err
	}
	return c, nil
}

// unquoteIRString decodes LLVM's "..." escaping with \xx hex escapes.
func unquoteIRString(s string) (string, error) {
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

// fillConst parses an integer/float/null/undef literal of type t into c.
func fillConst(c *Const, t *Type, tok string) error {
	switch tok {
	case "null":
		*c = Const{Typ: t, IsNull: true}
		return nil
	case "undef":
		*c = Const{Typ: t, IsUndef: true}
		return nil
	case "true":
		*c = Const{Typ: I1, Int: 1}
		return nil
	case "false":
		*c = Const{Typ: I1, Int: 0}
		return nil
	}
	if t.IsFloat() {
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return fmt.Errorf("bad float literal %q", tok)
		}
		*c = Const{Typ: F64, Float: f, IsFloat: true}
		return nil
	}
	i, err := strconv.ParseInt(tok, 10, 64)
	if err != nil {
		return fmt.Errorf("bad int literal %q", tok)
	}
	*c = Const{Typ: t, Int: i}
	return nil
}

// parseType parses a leading type from s, returning the remainder. Types
// that are not shared singletons come from the arena.
func (a *arena) parseType(s string) (*Type, string, error) {
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
		name := rest[:end]
		st, ok := namedStructs[name]
		if !ok {
			// An unregistered name is an opaque struct of this mention
			// alone: the registry is read-only while parsing, since parses
			// run concurrently, and input must not grow it.
			st = a.newType()
			st.Kind, st.SName = KStruct, name
		}
		base, s = st, rest[end:]
	case strings.HasPrefix(s, "["):
		close := matchBracket(s, 0, '[', ']')
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
		elem, rest, err := a.parseType(inner[xIdx+3:])
		if err != nil {
			return nil, "", err
		}
		if strings.TrimSpace(rest) != "" {
			return nil, "", fmt.Errorf("trailing %q in array type", rest)
		}
		arr := a.newType()
		arr.Kind, arr.Len, arr.Elem = KArray, n, elem
		base, s = arr, s[close+1:]
	default:
		return nil, "", fmt.Errorf("unknown type at %q", s)
	}
	for strings.HasPrefix(s, "*") {
		base = a.ptrTo(base)
		s = s[1:]
	}
	return base, s, nil
}

func isIdentChar(c byte) bool {
	return c == '_' || c == '.' ||
		('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}

// matchBracket returns the index of the bracket matching s[start].
func matchBracket(s string, start int, open, close byte) int {
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

// appendSplitTop appends to dst the pieces of s split on sep at bracket
// depth zero ((), [], {}).
func appendSplitTop(dst []string, s string, sep byte) []string {
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
				dst = append(dst, s[last:i])
				last = i + 1
			}
		}
	}
	return append(dst, s[last:])
}
