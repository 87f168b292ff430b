package passes

import (
	"strconv"

	"mpidetect/internal/ir"
)

// mem2reg is the mem2reg pass's working state, indexed by block position
// and by alloca ordinal (the alloca's rank among f's scalar allocas in
// instruction order).
type mem2reg struct {
	ord     map[*ir.Instr]int32 // scalar alloca -> ordinal
	allocas []*ir.Instr         // by ordinal
	escaped []bool              // by ordinal: used other than as a load or store address

	// Blocks holding stores to each alloca, in block order, as CSR:
	// defs[defStart[a]:defStart[a+1]]. storeOrd/storeBlock are the raw
	// (ordinal, block) pairs in instruction order.
	storeOrd, storeBlock []int32
	defStart, defs       []int32

	// Phi placement. placed[b] and isDef[b] hold ordinal+1 of the last
	// alloca that placed a phi in, or defines, block b, so neither needs
	// clearing between allocas.
	placed, isDef []int32
	work          []int32

	// The phis placed, in creation order, then regrouped per block in
	// instruction order (newest first, since each went in at the front).
	phis               []placedPhi
	phiStart, phiOrder []int32

	// Renaming: one value stack per alloca ordinal, and an undo log of
	// the ordinals pushed, unwound when the walk leaves a block.
	stacks [][]ir.Value
	undo   []int32
	walk   []renameFrame

	// repl maps each promoted load and each pruned phi to the value that
	// replaces it. Chains (a load replaced by a phi later pruned) are
	// followed by resolve; one final sweep rewrites every operand.
	repl map[*ir.Instr]ir.Value
}

type placedPhi struct {
	phi   *ir.Instr
	ord   int32
	block int32
	dead  bool // pruned
}

type renameFrame struct {
	block int32
	mark  int32 // undo-log length on entry; -1 for a block not yet entered
}

func newMem2Reg() mem2reg {
	return mem2reg{ord: map[*ir.Instr]int32{}, repl: map[*ir.Instr]ir.Value{}}
}

func (m *mem2reg) reset() {
	clear(m.ord)
	clear(m.repl)
	m.allocas = m.allocas[:0]
	m.escaped = m.escaped[:0]
	m.storeOrd, m.storeBlock = m.storeOrd[:0], m.storeBlock[:0]
	m.phis = m.phis[:0]
	m.undo = m.undo[:0]
	m.walk = m.walk[:0]
}

// mem2reg promotes scalar stack slots (allocas only accessed by direct
// loads and stores) to SSA values, inserting pruned phi nodes on the
// iterated dominance frontier of the stores. This is the pass that turns
// the front-end's naive stack code into real SSA, mirroring LLVM's
// -mem2reg, and is the first stage of the -O2/-Os pipelines.
func (s *scratch) mem2reg(f *ir.Func) {
	if len(f.Blocks) == 0 {
		return
	}
	m := &s.m2r
	m.reset()
	s.index(f)
	if !m.findPromotable(s.blocks) {
		return
	}
	s.computePreds()
	s.computeReach()
	s.dom.build(&s.cfg)
	m.placePhis(f.Mod, &s.cfg, &s.dom)
	m.rename(&s.cfg, &s.dom)
	m.prunePhis()
	m.sweep(s.blocks, &s.dom)
}

// findPromotable numbers f's scalar allocas and, in one sweep over the
// instructions, marks the ones that escape and records the blocks that
// store to each. It reports whether any alloca can be promoted.
func (m *mem2reg) findPromotable(blocks []*ir.Block) bool {
	for _, b := range blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpAlloca || len(in.Args) != 0 {
				continue
			}
			if in.AllocTy.IsAggregate() || in.AllocTy.Kind == ir.KStruct {
				continue
			}
			m.ord[in] = int32(len(m.allocas))
			m.allocas = append(m.allocas, in)
			m.escaped = append(m.escaped, false)
		}
	}
	if len(m.allocas) == 0 {
		return false
	}
	for bi, b := range blocks {
		for _, in := range b.Instrs {
			for i, arg := range in.Args {
				a, ok := m.allocaOrd(arg)
				if !ok {
					continue
				}
				switch {
				case in.Op == ir.OpLoad:
					// ok: load through the slot
				case in.Op == ir.OpStore && i == 1:
					m.storeOrd = append(m.storeOrd, a)
					m.storeBlock = append(m.storeBlock, int32(bi))
				default:
					m.escaped[a] = true // stored as a value, GEP, call, cast, ...
				}
			}
		}
	}
	promotable := false
	for _, e := range m.escaped {
		promotable = promotable || !e
	}
	return promotable
}

// allocaOrd returns v's ordinal if v is a scalar alloca of the function.
func (m *mem2reg) allocaOrd(v ir.Value) (int32, bool) {
	in, ok := v.(*ir.Instr)
	if !ok || in.Op != ir.OpAlloca {
		return 0, false
	}
	a, ok := m.ord[in]
	return a, ok
}

// promoted returns v's ordinal if v is an alloca being promoted.
func (m *mem2reg) promoted(v ir.Value) (int32, bool) {
	a, ok := m.allocaOrd(v)
	return a, ok && !m.escaped[a]
}

// placePhis inserts a phi for each promoted alloca on the iterated
// dominance frontier of the blocks that store to it, allocas in ordinal
// order, each one's def blocks in block order. The phis, their operand
// lists and each grown block's instruction list come from mod's arena.
func (m *mem2reg) placePhis(mod *ir.Module, c *cfg, dt *DomTree) {
	nBlocks := len(c.blocks)
	nAlloca := len(m.allocas)
	m.defStart = resize(m.defStart, nAlloca+1)
	clear(m.defStart)
	for _, a := range m.storeOrd {
		m.defStart[a+1]++
	}
	for a := 0; a < nAlloca; a++ {
		m.defStart[a+1] += m.defStart[a]
	}
	m.defs = resize(m.defs, len(m.storeOrd))
	m.work = append(m.work[:0], m.defStart[:nAlloca]...)
	for k, a := range m.storeOrd {
		m.defs[m.work[a]] = m.storeBlock[k]
		m.work[a]++
	}

	m.placed = resize(m.placed, nBlocks)
	m.isDef = resize(m.isDef, nBlocks)
	clear(m.placed)
	clear(m.isDef)
	phiID := 0
	for a, alloca := range m.allocas {
		if m.escaped[a] {
			continue
		}
		tag := int32(a) + 1
		m.work = m.work[:0]
		for _, b := range m.defs[m.defStart[a]:m.defStart[a+1]] {
			if m.isDef[b] != tag {
				m.isDef[b] = tag
				m.work = append(m.work, b)
			}
		}
		for head := 0; head < len(m.work); head++ {
			for _, df := range dt.frontier[m.work[head]] {
				if m.placed[df.Index] == tag {
					continue
				}
				m.placed[df.Index] = tag
				phiID++
				// One operand per predecessor edge, in the common case.
				edges := len(c.predsOf(df.Index))
				phi := mod.NewInstr(edges, edges)
				phi.Op, phi.Typ, phi.Name = ir.OpPhi, alloca.AllocTy, "m2r"+strconv.Itoa(phiID)
				phi.Args, phi.Blocks = phi.Args[:0], phi.Blocks[:0]
				m.phis = append(m.phis, placedPhi{phi: phi, ord: int32(a), block: int32(df.Index)})
				if m.isDef[df.Index] != tag {
					m.isDef[df.Index] = tag
					m.work = append(m.work, int32(df.Index))
				}
			}
		}
	}

	// Regroup per block in instruction order: newest first.
	m.phiStart = resize(m.phiStart, nBlocks+1)
	clear(m.phiStart)
	for _, p := range m.phis {
		m.phiStart[p.block+1]++
	}
	for b := 0; b < nBlocks; b++ {
		m.phiStart[b+1] += m.phiStart[b]
	}
	m.phiOrder = resize(m.phiOrder, len(m.phis))
	m.work = append(m.work[:0], m.phiStart[:nBlocks]...)
	for k := len(m.phis) - 1; k >= 0; k-- {
		b := m.phis[k].block
		m.phiOrder[m.work[b]] = int32(k)
		m.work[b]++
	}

	// Put each block's phis at its head in that order, in one list sized
	// once: the order inserting each phi at the front would leave.
	for b := 0; b < nBlocks; b++ {
		ks := m.blockPhis(b)
		if len(ks) == 0 {
			continue
		}
		blk := c.blocks[b]
		list := mod.NewInstrList(len(ks) + len(blk.Instrs))
		for _, k := range ks {
			phi := m.phis[k].phi
			phi.Parent = blk
			list = append(list, phi)
		}
		blk.Instrs = append(list, blk.Instrs...)
	}
}

// blockPhis returns the indices into m.phis of block b's placed phis, in
// instruction order.
func (m *mem2reg) blockPhis(b int) []int32 {
	return m.phiOrder[m.phiStart[b]:m.phiStart[b+1]]
}

// top returns the current value of alloca a: the top of its stack, or a
// fresh undef when no store reaches.
func (m *mem2reg) top(a int32) ir.Value {
	if s := m.stacks[a]; len(s) > 0 {
		return s[len(s)-1]
	}
	return ir.ConstUndef(m.allocas[a].AllocTy)
}

func (m *mem2reg) push(a int32, v ir.Value) {
	m.stacks[a] = append(m.stacks[a], v)
	m.undo = append(m.undo, a)
}

// resolve follows v through the replacement map.
func (m *mem2reg) resolve(v ir.Value) ir.Value {
	for {
		in, ok := v.(*ir.Instr)
		if !ok {
			return v
		}
		r, ok := m.repl[in]
		if !ok {
			return v
		}
		v = r
	}
}

// replace records that in is replaced by v. v is resolved first, so the
// map stays a forest; a load that would read itself (a use before its
// definition, which only invalid SSA has) reads undef instead.
func (m *mem2reg) replace(in *ir.Instr, v ir.Value) {
	v = m.resolve(v)
	if v == ir.Value(in) {
		v = ir.ConstUndef(in.Typ)
	}
	m.repl[in] = v
}

// rename walks the dominator tree in preorder, children in block order,
// replacing each promoted load with the reaching value and filling the
// operands of the phis in each block's successors.
func (m *mem2reg) rename(c *cfg, dt *DomTree) {
	m.stacks = resize(m.stacks, len(m.allocas))
	for a := range m.stacks {
		m.stacks[a] = m.stacks[a][:0]
	}
	m.walk = append(m.walk[:0], renameFrame{block: 0, mark: -1})
	for len(m.walk) > 0 {
		fr := m.walk[len(m.walk)-1]
		m.walk = m.walk[:len(m.walk)-1]
		if fr.mark >= 0 {
			for len(m.undo) > int(fr.mark) {
				a := m.undo[len(m.undo)-1]
				m.stacks[a] = m.stacks[a][:len(m.stacks[a])-1]
				m.undo = m.undo[:len(m.undo)-1]
			}
			continue
		}
		bi := int(fr.block)
		b := c.blocks[bi]
		m.walk = append(m.walk, renameFrame{block: fr.block, mark: int32(len(m.undo))})
		for _, k := range m.blockPhis(bi) {
			m.push(m.phis[k].ord, m.phis[k].phi)
		}
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpLoad:
				if a, ok := m.promoted(in.Args[0]); ok {
					m.replace(in, m.top(a))
				}
			case ir.OpStore:
				if a, ok := m.promoted(in.Args[1]); ok {
					m.push(a, in.Args[0])
				}
			}
		}
		// Fill phi operands of successors: one incoming slot per
		// predecessor edge from b, for each time b names the successor.
		for _, s := range b.Succs() {
			edges := 0
			for _, p := range c.predsOf(s.Index) {
				if p == b {
					edges++
				}
			}
			for _, k := range m.blockPhis(s.Index) {
				p := m.phis[k]
				for e := 0; e < edges; e++ {
					p.phi.Args = append(p.phi.Args, m.top(p.ord))
					p.phi.Blocks = append(p.phi.Blocks, b)
				}
			}
		}
		kids := dt.children[dt.childStart[bi]:dt.childStart[bi+1]]
		for i := len(kids) - 1; i >= 0; i-- {
			m.walk = append(m.walk, renameFrame{block: int32(kids[i].Index), mark: -1})
		}
	}
}

// prunePhis removes placed phis that ended up with no incoming edges
// (only unreachable predecessors) or with one distinct operand besides
// themselves, until none changes. Operands are read through the
// replacement map, so each prune is visible to the phis after it.
func (m *mem2reg) prunePhis() {
	for changed := true; changed; {
		changed = false
		for b := 0; b+1 < len(m.phiStart); b++ {
			for _, k := range m.blockPhis(b) {
				p := &m.phis[k]
				if p.dead {
					continue
				}
				if len(p.phi.Args) == 0 {
					m.replace(p.phi, ir.ConstUndef(p.phi.Typ))
					p.dead, changed = true, true
					continue
				}
				same := true
				var uniq ir.Value
				for _, a := range p.phi.Args {
					a = m.resolve(a)
					if a == ir.Value(p.phi) {
						continue
					}
					if uniq == nil {
						uniq = a
					} else if uniq != a {
						same = false
						break
					}
				}
				if same && uniq != nil {
					m.replace(p.phi, uniq)
					p.dead, changed = true, true
				}
			}
		}
	}
}

// sweep removes the promoted allocas, the loads and stores the renaming
// walk replaced, and the pruned phis, one compaction per block, and
// rewrites every remaining operand through the replacement map.
func (m *mem2reg) sweep(blocks []*ir.Block, dt *DomTree) {
	for bi, b := range blocks {
		reachable := dt.idom[bi] >= 0
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			dead := false
			switch in.Op {
			case ir.OpAlloca:
				_, dead = m.promoted(in)
			case ir.OpLoad, ir.OpPhi:
				_, dead = m.repl[in]
			case ir.OpStore:
				_, promoted := m.promoted(in.Args[1])
				dead = reachable && promoted
			}
			if dead {
				continue
			}
			if len(m.repl) > 0 {
				for i, a := range in.Args {
					in.Args[i] = m.resolve(a)
				}
			}
			kept = append(kept, in)
		}
		clear(b.Instrs[len(kept):])
		b.Instrs = kept
	}
}
