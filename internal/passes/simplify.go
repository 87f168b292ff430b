package passes

import "mpidetect/internal/ir"

// dce removes instructions whose results are unused and that have no side
// effects, iterating to a fixed point. Loads are treated as removable
// (the IR has no volatile); calls, stores and terminators are kept.
func (s *scratch) dce(f *ir.Func) bool {
	// One use count, maintained decrementally: removing an instruction
	// releases its operands' uses, which is exactly what a fresh count
	// on the smaller function would report — so the fixed point is
	// identical without re-counting every iteration.
	uses := s.uses
	clear(uses)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if ai, ok := a.(*ir.Instr); ok {
					uses[ai]++
				}
			}
		}
	}
	changedAny := false
	for {
		changed := false
		for _, b := range f.Blocks {
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := b.Instrs[i]
				if in.Op.HasSideEffects() || in.Op.IsTerm() || uses[in] != 0 {
					continue
				}
				for _, a := range in.Args {
					if ai, ok := a.(*ir.Instr); ok {
						uses[ai]--
					}
				}
				b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
				changed = true
			}
		}
		if !changed {
			break
		}
		changedAny = true
	}
	return changedAny
}

// simplifyCFG removes unreachable blocks, merges blocks with a single
// unconditional-branch predecessor, and eliminates empty forwarding blocks.
func (s *scratch) simplifyCFG(f *ir.Func) bool {
	changedAny := false
	for {
		changed := false

		// 1. Drop unreachable blocks (fixing up phis that referenced them).
		s.index(f)
		s.computeReach()
		if len(s.rpo) < len(s.blocks) {
			kept := f.Blocks[:0]
			for i, b := range s.blocks {
				if s.reach[i] {
					kept = append(kept, b)
					continue
				}
				for _, succ := range b.Succs() {
					removePhiEdge(succ, b)
				}
			}
			clear(f.Blocks[len(kept):])
			f.Blocks = kept
			changed = true
			s.index(f)
		}

		// 2. Merge b -> succ when b ends in an unconditional br to succ and
		// succ has exactly one predecessor (and no phis fed by others,
		// guaranteed by the single-pred condition).
		s.computePreds()
		for _, b := range f.Blocks {
			t := b.Term()
			if t == nil || t.Op != ir.OpBr {
				continue
			}
			succ := t.Blocks[0]
			if succ == b || len(s.predsOf(succ.Index)) != 1 || succ == f.Entry() {
				continue
			}
			// Phis in succ have a single incoming edge: replace with
			// operand. succ's phis are dropped with succ.
			phis := succ.Phis()
			for _, phi := range phis {
				if len(phi.Args) == 1 {
					ir.ReplaceUses(f, phi, phi.Args[0])
				}
			}
			b.RemoveInstr(t)
			for _, in := range succ.Instrs[len(phis):] {
				in.Parent = b
				b.Instrs = append(b.Instrs, in)
			}
			// Successors of succ may have phis naming succ; retarget to b.
			for _, ss := range b.Succs() {
				for _, phi := range ss.Phis() {
					for i, pb := range phi.Blocks {
						if pb == succ {
							phi.Blocks[i] = b
						}
					}
				}
			}
			f.RemoveBlock(succ)
			s.index(f)
			s.computePreds()
			changed = true
			break // predecessors are stale; restart
		}

		// 3. Thread empty forwarding blocks: a block containing only
		// "br label %x" can be bypassed when no phi disambiguation is lost.
		// Predecessors are taken once, before any retargeting.
		for _, b := range f.Blocks {
			if b == f.Entry() || len(b.Instrs) != 1 {
				continue
			}
			t := b.Term()
			if t == nil || t.Op != ir.OpBr {
				continue
			}
			target := t.Blocks[0]
			if target == b || len(target.Phis()) > 0 {
				continue
			}
			preds := s.predsOf(b.Index)
			for _, p := range preds {
				pt := p.Term()
				for i, tb := range pt.Blocks {
					if tb == b {
						pt.Blocks[i] = target
					}
				}
			}
			if len(preds) > 0 {
				changed = true
			}
		}

		if !changed {
			break
		}
		changedAny = true
	}
	return changedAny
}

// CondBrSameTarget rewrites "br %c, label %x, label %x" into "br label %x".
func CondBrSameTarget(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		t := b.Term()
		if t != nil && t.Op == ir.OpCondBr && t.Blocks[0] == t.Blocks[1] {
			t.Op = ir.OpBr
			t.Args = nil
			t.Blocks = t.Blocks[:1]
			changed = true
		}
	}
	return changed
}
