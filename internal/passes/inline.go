package passes

import (
	"fmt"
	"sync/atomic"

	"mpidetect/internal/ir"
)

// Inline performs bottom-up function inlining: direct calls to defined,
// non-recursive functions whose size is at most maxSize instructions are
// replaced by a clone of the callee body. Returns whether anything changed.
func Inline(m *ir.Module, maxSize int) bool {
	changed := false
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
			inlineCall(f, site)
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

// inlineCounter numbers inlined bodies; atomic because modules are
// optimised concurrently.
var inlineCounter atomic.Int64

// inlineCall splices a clone of the callee body at the call site.
func inlineCall(caller *ir.Func, call *ir.Instr) {
	prefix := fmt.Sprintf("inl%d.", inlineCounter.Add(1))
	callee := caller.Mod.FuncByName(call.Callee)
	host := call.Parent

	// Split host at the call site.
	callIdx := -1
	for i, in := range host.Instrs {
		if in == call {
			callIdx = i
			break
		}
	}
	cont := &ir.Block{Name: prefix + "cont", Parent: caller}
	cont.Instrs = append(cont.Instrs, host.Instrs[callIdx+1:]...)
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

	// Clone callee blocks.
	vmap := map[ir.Value]ir.Value{}
	bmap := map[*ir.Block]*ir.Block{}
	for i, p := range callee.Params {
		vmap[p] = call.Args[i]
	}
	clones := make([]*ir.Block, 0, len(callee.Blocks))
	for _, b := range callee.Blocks {
		nb := &ir.Block{Name: prefix + b.Name, Parent: caller}
		bmap[b] = nb
		clones = append(clones, nb)
	}
	var retVals []ir.Value
	var retBlocks []*ir.Block
	for _, b := range callee.Blocks {
		nb := bmap[b]
		for _, in := range b.Instrs {
			if in.Op == ir.OpRet {
				if len(in.Args) == 1 {
					retVals = append(retVals, resolve(vmap, in.Args[0]))
					retBlocks = append(retBlocks, nb)
				} else {
					retVals = append(retVals, nil)
					retBlocks = append(retBlocks, nb)
				}
				nb.Append(&ir.Instr{Op: ir.OpBr, Typ: ir.Void, Blocks: []*ir.Block{cont}})
				continue
			}
			ni := &ir.Instr{
				Op: in.Op, Typ: in.Typ, Cmp: in.Cmp, Callee: in.Callee,
				AllocTy: in.AllocTy,
			}
			if in.Name != "" {
				ni.Name = prefix + in.Name
			}
			ni.Args = make([]ir.Value, len(in.Args))
			for i, a := range in.Args {
				ni.Args[i] = resolve(vmap, a)
			}
			ni.Blocks = make([]*ir.Block, len(in.Blocks))
			for i, tb := range in.Blocks {
				ni.Blocks[i] = bmap[tb]
			}
			nb.Append(ni)
			vmap[in] = ni
		}
	}
	// Second pass: fix operands that referenced values cloned later (phis).
	for _, nb := range clones {
		for _, in := range nb.Instrs {
			for i, a := range in.Args {
				in.Args[i] = resolve(vmap, a)
			}
		}
	}

	// Wire host -> entry clone.
	entryClone := bmap[callee.Entry()]
	host.Append(&ir.Instr{Op: ir.OpBr, Typ: ir.Void, Blocks: []*ir.Block{entryClone}})

	// Splice blocks into the caller *before* rewriting uses of the call,
	// so that uses living in cont are visible to ReplaceUses.
	hostIdx := -1
	for i, b := range caller.Blocks {
		if b == host {
			hostIdx = i
			break
		}
	}
	rest := append([]*ir.Block(nil), caller.Blocks[hostIdx+1:]...)
	caller.Blocks = append(caller.Blocks[:hostIdx+1], clones...)
	caller.Blocks = append(caller.Blocks, cont)
	caller.Blocks = append(caller.Blocks, rest...)

	// Join return values.
	if call.Typ != nil && call.Typ.Kind != ir.KVoid {
		var rv ir.Value
		nonNil := 0
		for _, v := range retVals {
			if v != nil {
				rv = v
				nonNil++
			}
		}
		switch {
		case nonNil == 0:
			rv = ir.ConstUndef(call.Typ)
		case nonNil > 1:
			phi := &ir.Instr{Op: ir.OpPhi, Typ: call.Typ, Name: prefix + "ret"}
			for i, v := range retVals {
				if v == nil {
					v = ir.ConstUndef(call.Typ)
				}
				phi.Args = append(phi.Args, v)
				phi.Blocks = append(phi.Blocks, retBlocks[i])
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
