package passes

import (
	"strconv"
	"strings"

	"mpidetect/internal/ir"
)

// inline performs bottom-up function inlining: direct calls to defined,
// non-recursive functions whose size is at most maxSize instructions are
// replaced by a clone of the callee body. Returns whether anything changed.
//
// Inlined bodies are numbered per call, from one past the highest inl<n>.
// prefix already in the module, so the output depends only on the input
// and stays free of name clashes when the input was itself optimised.
func (s *scratch) inline(m *ir.Module, maxSize int) bool {
	changed := false
	next := lastInlineID(m) + 1
	for _, f := range m.Funcs {
		if f.Decl {
			continue
		}
		// Repeatedly scan for an inlinable call site; each inline splices
		// blocks so we restart the scan after every success.
		for budget := 0; budget < 64; budget++ {
			site := findInlinableCall(m, f, maxSize)
			if site == nil {
				break
			}
			s.inlineCall(f, site, next)
			next++
			changed = true
		}
	}
	return changed
}

func findInlinableCall(m *ir.Module, f *ir.Func, maxSize int) *ir.Instr {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpCall {
				continue
			}
			callee := m.FuncByName(in.Callee)
			if callee == nil || callee.Decl || callee == f {
				continue
			}
			if callee.NumInstrs() > maxSize || callsSelf(callee) {
				continue
			}
			if len(callee.Params) != len(in.Args) {
				continue
			}
			return in
		}
	}
	return nil
}

func callsSelf(f *ir.Func) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall && in.Callee == f.Name {
				return true
			}
		}
	}
	return false
}

// lastInlineID returns the highest n of any inl<n>. name prefix on a
// parameter, block or instruction of m's defined functions, or 0.
func lastInlineID(m *ir.Module) int {
	last := 0
	see := func(name string) {
		rest, ok := strings.CutPrefix(name, "inl")
		if !ok {
			return
		}
		digits, _, ok := strings.Cut(rest, ".")
		if !ok {
			return
		}
		if n, err := strconv.Atoi(digits); err == nil && n > last {
			last = n
		}
	}
	for _, f := range m.Funcs {
		if f.Decl {
			continue
		}
		for _, p := range f.Params {
			see(p.Name)
		}
		for _, b := range f.Blocks {
			see(b.Name)
			for _, in := range b.Instrs {
				see(in.Name)
			}
		}
	}
	return last
}

// inliner is the inliner's working memory, pooled with the scratch.
// vmap is keyed by IR pointers, and a recycled arena reuses addresses, so
// inlineCall clears it before every use.
type inliner struct {
	vmap      map[ir.Value]ir.Value // callee param or instruction -> its clone's value
	clones    []*ir.Block           // by callee block position
	retVals   []ir.Value            // per cloned ret: its value, nil for ret void
	retBlocks []*ir.Block
}

// inlineCall splices a clone of the callee body at the call site, naming
// its blocks and values with the prefix inl<id>. The clones come from the
// caller's module arena, each instruction and list allocated at its exact
// size.
func (s *scratch) inlineCall(caller *ir.Func, call *ir.Instr, id int) {
	w := &s.inl
	clear(w.vmap)
	m := caller.Mod
	prefix := "inl" + strconv.Itoa(id) + "."
	callee := m.FuncByName(call.Callee)
	host := call.Parent

	// Split host at the call site. cont's list has room for the phi
	// joining the callee's return values.
	callIdx := -1
	for i, in := range host.Instrs {
		if in == call {
			callIdx = i
			break
		}
	}
	tail := host.Instrs[callIdx+1:]
	cont := m.NewBlock(prefix+"cont", caller)
	cont.Instrs = append(m.NewInstrList(len(tail)+1), tail...)
	for _, in := range cont.Instrs {
		in.Parent = cont
	}
	host.Instrs = host.Instrs[:callIdx]
	// Successor phis that named host now receive control from cont.
	for _, b := range caller.Blocks {
		for _, phi := range b.Phis() {
			// The host terminator moved into cont, so control edges out of
			// the original block now originate from cont.
			for i, pb := range phi.Blocks {
				if pb == host {
					phi.Blocks[i] = cont
				}
			}
		}
	}

	// Clone callee blocks. A branch target is mapped to its clone through
	// the target's position in the callee.
	for i, p := range callee.Params {
		w.vmap[p] = call.Args[i]
	}
	w.clones = w.clones[:0]
	for i, b := range callee.Blocks {
		b.Index = i
		nb := m.NewBlock(prefix+b.Name, caller)
		nb.Instrs = m.NewInstrList(len(b.Instrs))
		w.clones = append(w.clones, nb)
	}
	cloneOf := func(b *ir.Block) *ir.Block {
		if i := b.Index; i >= 0 && i < len(callee.Blocks) && callee.Blocks[i] == b {
			return w.clones[i]
		}
		return nil
	}
	w.retVals, w.retBlocks = w.retVals[:0], w.retBlocks[:0]
	for bi, b := range callee.Blocks {
		nb := w.clones[bi]
		for _, old := range b.Instrs {
			if old.Op == ir.OpRet {
				var rv ir.Value
				if len(old.Args) == 1 {
					rv = resolve(w.vmap, old.Args[0])
				}
				w.retVals = append(w.retVals, rv)
				w.retBlocks = append(w.retBlocks, nb)
				br := m.NewInstr(0, 1)
				br.Op, br.Typ, br.Blocks[0] = ir.OpBr, ir.Void, cont
				nb.Append(br)
				continue
			}
			ni := m.NewInstr(len(old.Args), len(old.Blocks))
			ni.Op, ni.Typ, ni.Cmp, ni.Callee, ni.AllocTy = old.Op, old.Typ, old.Cmp, old.Callee, old.AllocTy
			if old.Name != "" {
				ni.Name = prefix + old.Name
			}
			for i, a := range old.Args {
				ni.Args[i] = resolve(w.vmap, a)
			}
			for i, tb := range old.Blocks {
				ni.Blocks[i] = cloneOf(tb)
			}
			nb.Append(ni)
			w.vmap[old] = ni
		}
	}
	// Second pass: fix operands that referenced values cloned later (phis).
	for _, nb := range w.clones {
		for _, ni := range nb.Instrs {
			for i, a := range ni.Args {
				ni.Args[i] = resolve(w.vmap, a)
			}
		}
	}

	// Wire host -> entry clone.
	br := m.NewInstr(0, 1)
	br.Op, br.Typ = ir.OpBr, ir.Void
	if len(w.clones) > 0 {
		br.Blocks[0] = w.clones[0]
	}
	host.Append(br)

	// Splice blocks into the caller *before* rewriting uses of the call,
	// so that uses living in cont are visible to ReplaceUses.
	hostIdx := -1
	for i, b := range caller.Blocks {
		if b == host {
			hostIdx = i
			break
		}
	}
	blocks := m.NewBlockList(len(caller.Blocks) + len(w.clones) + 1)
	blocks = append(blocks, caller.Blocks[:hostIdx+1]...)
	blocks = append(blocks, w.clones...)
	blocks = append(blocks, cont)
	caller.Blocks = append(blocks, caller.Blocks[hostIdx+1:]...)

	// Join return values.
	if call.Typ != nil && call.Typ.Kind != ir.KVoid {
		var rv ir.Value
		nonNil := 0
		for _, v := range w.retVals {
			if v != nil {
				rv = v
				nonNil++
			}
		}
		switch {
		case nonNil == 0:
			rv = ir.ConstUndef(call.Typ)
		case nonNil > 1:
			phi := m.NewInstr(len(w.retVals), len(w.retVals))
			phi.Op, phi.Typ, phi.Name = ir.OpPhi, call.Typ, prefix+"ret"
			for i, v := range w.retVals {
				if v == nil {
					v = ir.ConstUndef(call.Typ)
				}
				phi.Args[i], phi.Blocks[i] = v, w.retBlocks[i]
			}
			cont.InsertFront(phi)
			rv = phi
		}
		ir.ReplaceUses(caller, call, rv)
	}
}

func resolve(vmap map[ir.Value]ir.Value, v ir.Value) ir.Value {
	if nv, ok := vmap[v]; ok {
		return nv
	}
	return v
}
